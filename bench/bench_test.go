package main

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mie/internal/leakcheck"
)

func readBenchmarkFile(t *testing.T) *benchmarkSpec {
	t.Helper()
	bf, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSpecMatchesBenchmarkJSON keeps the program's metric and workload
// tables identical to the ones BENCHMARK.json declares to the driver.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", bf.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bf.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bf.PerLayer, perLayerSpecs)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, sp := range append(append([]metricSpec{}, bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(sp.Name) || !unitRE.MatchString(sp.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", sp.Name, sp.Unit)
		}
		if seen[sp.Name] {
			t.Errorf("metric %q declared twice", sp.Name)
		}
		seen[sp.Name] = true
		if sp.Better != "lower" && sp.Better != "higher" {
			t.Errorf("metric %q: better = %q", sp.Name, sp.Better)
		}
	}
	for _, sp := range bf.EndToEnd {
		if sp.Bound <= 0 || sp.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", sp.Name, sp.Bound)
		}
		hasSetup = hasSetup || (sp.Name == "setup_s" && sp.Unit == "s" && sp.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		seen[w.Name] = true
	}
}

func metricNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func specNames(specs []metricSpec) []string {
	names := make([]string, 0, len(specs))
	for _, sp := range specs {
		names = append(names, sp.Name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsEmitEveryMetric runs all four workloads untraced and traced
// at the tiny scale: every run is correct, emits exactly the metrics
// BENCHMARK.json names for its mode (each once, with its unit), writes its
// span file when traced, and leaves no goroutine behind. The workloads run
// side by side to keep the test short under the race detector; they share
// the process-wide registry, which skews values this test does not look at.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	leakcheck.Check(t)
	bf := readBenchmarkFile(t)
	t.Run("workloads", func(t *testing.T) {
		for _, w := range bf.Workloads {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				checkWorkloadRuns(t, bf, w)
			})
		}
	})
}

func checkWorkloadRuns(t *testing.T, bf *benchmarkSpec, w workloadSpec) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, traced := range []bool{false, true} {
		cfg := runConfig{seed: 1, seconds: 0.2, trace: traced, sc: tinyScale, dataDir: t.TempDir(), traceDir: t.TempDir()}
		res, err := runWorkload(cfg, w.Name)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
		}
		got, want, other := res.EndToEnd, bf.EndToEnd, res.PerLayer
		if traced {
			got, want, other = res.PerLayer, bf.PerLayer, res.EndToEnd
		}
		if !reflect.DeepEqual(metricNames(got), specNames(want)) {
			t.Errorf("%s traced=%v emitted %v, want %v", w.Name, traced, metricNames(got), specNames(want))
		}
		if len(other) != 0 {
			t.Errorf("%s traced=%v also emitted %v", w.Name, traced, metricNames(other))
		}
		for _, sp := range want {
			if got[sp.Name].Unit != sp.Unit {
				t.Errorf("%s %s: unit %q, want %q", w.Name, sp.Name, got[sp.Name].Unit, sp.Unit)
			}
		}
		for name := range res.Diagnostics {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: diagnostic name %q", w.Name, name)
			}
		}
		if res.Commit == "" || res.GoVersion == "" || res.NumCPU < 1 || res.OpHash == "" || res.Start.IsZero() {
			t.Errorf("%s: result is not stamped: %+v", w.Name, res)
		}
		if traced {
			spans, err := os.ReadFile(filepath.Join(cfg.traceDir, "trace-"+w.Name+".jsonl"))
			if err != nil || len(spans) == 0 {
				t.Errorf("%s: span file: %d bytes, %v", w.Name, len(spans), err)
			}
		}
		if left, err := os.ReadDir(cfg.dataDir); err != nil || len(left) != 0 {
			t.Errorf("%s traced=%v left %d entries in its data directory (%v)", w.Name, traced, len(left), err)
		}
	}
}

// TestOpSequenceFollowsSeed: the same seed yields the same inputs and op
// sequence, another seed different ones.
func TestOpSequenceFollowsSeed(t *testing.T) {
	for _, w := range workloadSpecs {
		hash := func(seed int64) string {
			in, err := prepareInputs(w.Name, seed, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			return in.opHash
		}
		first, again, other := hash(1), hash(1), hash(2)
		if first != again {
			t.Errorf("%s: seed 1 hashed to %s, then %s", w.Name, first, again)
		}
		if first == other {
			t.Errorf("%s: seeds 1 and 2 both hashed to %s", w.Name, first)
		}
	}
}
