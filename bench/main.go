// Command bench is the repository's benchmark spine: four seeded workloads
// driven closed-loop through client → router → leader → WAL → follower, all
// tiers booted in this process over loopback TCP from public constructors,
// with every result verified and stamped. See README.md.
//
//	go run ./bench run [-seed N] [-workload NAME|all] [-seconds S] [-trace 0|1] [-out FILE]
//	go run ./bench compare A.jsonl B.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// commit is the source revision, set by run.sh through -ldflags; a plain
// `go run` falls back to the VCS stamp of the build.
var commit string

// Where a run keeps its files, relative to the root of the checkout it is
// started from: the deployment's data (removed after every run), the span
// files of traced runs, and the history every stamped result is appended to.
const (
	dataDir     = ".bench_build/data"
	traceDir    = "bench/out"
	historyFile = "bench/history.jsonl"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "compare":
		err = compareCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run [-seed N] [-workload NAME|all] [-seconds S] [-trace 0|1] [-out FILE]")
	fmt.Fprintln(os.Stderr, "       bench compare A.jsonl B.jsonl")
	os.Exit(2)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed; all inputs derive from it")
	workload := fs.String("workload", "all", "workload name, or all")
	seconds := fs.Float64("seconds", 15, "length of the timed run")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced run (end-to-end metrics)")
	out := fs.String("out", "", "also write the stamped results to this file, one JSON object per line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	for _, w := range workloadSpecs {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, sc: fullScale, dataDir: dataDir, traceDir: traceDir}

	var results []*result
	for _, name := range names {
		res, err := runWorkload(cfg, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := appendJSONLine(historyFile, res); err != nil {
			return err
		}
		if *out != "" {
			if err := appendJSONLine(*out, res); err != nil {
				return err
			}
		}
		printResult(res)
		results = append(results, res)
	}
	return failedError(results)
}

// failedError is what makes the command exit non-zero: any failed operation
// or failed check in any of the runs.
func failedError(results []*result) error {
	for _, res := range results {
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations and checks failed", res.Workload, res.Failed, res.Attempted)
		}
	}
	return nil
}

// stamp fills the envelope every result carries: where, when and on what the
// numbers were measured.
func stamp(cfg runConfig, workload string, start time.Time) *result {
	return &result{
		Schema:     1,
		Commit:     sourceRevision(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Start:      start.UTC(),
		Workload:   workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Constants:  cfg.sc,
	}
}

func sourceRevision() string {
	if commit != "" {
		return commit
	}
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return runtime.GOARCH
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printResult prints every metric by name with its unit, then — as the last
// line — the one-object summary the benchmark driver reads.
func printResult(res *result) {
	fmt.Printf("\n%s  seed=%d seconds=%g trace=%v clients=%d commit=%s %s nproc=%d gomaxprocs=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Clients, res.Commit, res.GoVersion, res.NumCPU, res.GOMAXPROCS)
	fmt.Printf("  op sequence %s, %d attempted, %d failed, wall %.1f s\n", res.OpHash, res.Attempted, res.Failed, res.WallS)
	for _, msg := range res.Failures {
		fmt.Printf("  FAILED: %s\n", msg)
	}
	metrics := res.EndToEnd
	if res.Trace {
		metrics = res.PerLayer
	}
	printMetrics("metric", metrics)
	printMetrics("diagnostic", res.Diagnostics)
	if len(res.Layers) > 0 {
		fmt.Printf("  layer staircase, median ms per operation (spans in %s)\n", res.TraceFile)
		fmt.Printf("    %-8s %-14s %10s %10s\n", "op", "layer", "span", "self")
		for _, row := range res.Layers {
			fmt.Printf("    %-8s %-14s %10.4f %10.4f\n", row.Op, row.Layer, row.SpanMs, row.SelfMs)
		}
	}

	summary := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics}
	line, err := json.Marshal(summary)
	if err != nil {
		panic(err) // metric values were checked finite
	}
	fmt.Printf("%s\n", line)
}

func printMetrics(title string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-10s %-34s %16.6g %s\n", title, name, m[name].Value, m[name].Unit)
	}
}
