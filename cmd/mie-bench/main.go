// Command mie-bench prints the paper's evaluation (§VII) in the paper's
// layout, and the system experiments that measure something the benchmark
// spine in bench/ does not.
//
// Usage:
//
//	mie-bench [-scale quick|default|paper-sample|paper] [-experiment name[,name...]]
//
// The default scale runs the paper's evaluation in minutes on a laptop by
// shrinking workloads ~10x; -scale paper restores the published sizes
// (expect the Hom-MSSE runs to take a very long time — on the paper's tablet
// they drained the battery).
//
// -experiment all (the default) is the paper's evaluation in the paper's
// order: table1, table2, fig2, fig3, fig4, fig5, fig6, table3, attack,
// ablations. The system experiments run by name only:
//
//	incremental     retrain cost after ~10% churn, incremental vs full
//	                rebuild, with mAP parity
//	tenancy         a repository fleet churned through lazy activation and
//	                LRU eviction under a memory budget (activation latency,
//	                resident accounting, acked-write durability), then
//	                hot-tenant fairness with in-flight admission off and on
//	cluster         read scale-out across cluster sizes behind the
//	                consistent-hash router, replication lag, and the
//	                zero-loss leader-kill ledger
//
// incremental, tenancy and cluster also write their report as
// BENCH_<name>.json in the working directory. Speed numbers — throughput,
// latency percentiles, WAL and fsync cost, per-layer time — come from
// `go run ./bench`, not from here; what request tracing costs is its
// trace.overhead_share on every workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"mie/internal/device"
	"mie/internal/experiments"
)

// env is what an experiment runs with: the scale's configuration, and the
// mobile update sweep, which fig2 and fig6 both print and must share (at
// default scale it is the longest run of the evaluation).
type env struct {
	cfg    experiments.Config
	mobile func() ([]experiments.UpdateRow, error)
}

// table lists every experiment. The paper entries are in the paper's order;
// -experiment all runs exactly those, each followed by a blank line.
var table = []struct {
	name  string
	paper bool
	run   func(e *env) error
}{
	{"table1", true, func(e *env) error {
		scaling, err := experiments.Table1Empirical(e.cfg)
		if err != nil {
			return err
		}
		experiments.WriteTable1Report(os.Stdout, experiments.Table1Static(), scaling)
		return nil
	}},
	{"table2", true, func(e *env) error {
		rows, err := experiments.Table2(e.cfg.Seed)
		if err != nil {
			return err
		}
		experiments.WriteTable2Report(os.Stdout, rows)
		return nil
	}},
	{"fig2", true, func(e *env) error {
		rows, err := e.mobile()
		if err != nil {
			return err
		}
		experiments.WriteUpdateReport(os.Stdout, "Figure 2: update performance, mobile device", rows)
		return nil
	}},
	{"fig3", true, func(e *env) error {
		rows, err := experiments.UpdateExperiment(device.Desktop, e.cfg)
		if err != nil {
			return err
		}
		experiments.WriteUpdateReport(os.Stdout, "Figure 3: update performance, desktop device", rows)
		return nil
	}},
	{"fig4", true, func(e *env) error {
		rows, err := experiments.MultiUserExperiment(e.cfg)
		if err != nil {
			return err
		}
		experiments.WriteMultiUserReport(os.Stdout, rows)
		return nil
	}},
	{"fig5", true, func(e *env) error {
		rows, err := experiments.SearchExperiment(e.cfg)
		if err != nil {
			return err
		}
		experiments.WriteSearchReport(os.Stdout, rows)
		return nil
	}},
	{"fig6", true, func(e *env) error {
		rows, err := e.mobile()
		if err != nil {
			return err
		}
		experiments.WriteEnergyReport(os.Stdout, rows, device.Mobile.BatteryCapacityMAh)
		return nil
	}},
	{"table3", true, func(e *env) error {
		rows, err := experiments.PrecisionExperiment(e.cfg)
		if err != nil {
			return err
		}
		experiments.WritePrecisionReport(os.Stdout, rows)
		return nil
	}},
	{"attack", true, func(e *env) error {
		rows, err := experiments.AttackExperiment(e.cfg)
		if err != nil {
			return err
		}
		experiments.WriteAttackReport(os.Stdout, rows)
		return nil
	}},
	{"ablations", true, runAblations},

	{"incremental", false, func(e *env) error {
		report, err := experiments.IncrementalExperiment(e.cfg)
		if err != nil {
			return err
		}
		experiments.WriteIncrementalReport(os.Stdout, report)
		return save("incremental", report)
	}},
	{"tenancy", false, func(e *env) error {
		return withTempDir(func(dir string) error {
			report, err := experiments.TenancyExperiment(e.cfg, dir)
			if err != nil {
				return err
			}
			experiments.WriteTenancyReport(os.Stdout, report)
			return save("tenancy", report)
		})
	}},
	{"cluster", false, func(e *env) error {
		return withTempDir(func(dir string) error {
			report, err := experiments.ClusterExperiment(e.cfg, dir)
			if err != nil {
				return err
			}
			experiments.WriteClusterReport(os.Stdout, report)
			return save("cluster", report)
		})
	}},
}

func main() {
	scale := flag.String("scale", "default", "workload scale: quick, default, paper-sample, or paper")
	experiment := flag.String("experiment", "all", "comma-separated experiments to run: "+validNames())
	flag.Parse()
	if err := run(*scale, *experiment); err != nil {
		fmt.Fprintln(os.Stderr, "mie-bench:", err)
		os.Exit(1)
	}
}

func validNames() string {
	names := []string{"all"}
	for _, x := range table {
		names = append(names, x.name)
	}
	return strings.Join(names, ", ")
}

// run resolves every requested name before running any of them, so a typo
// at the end of a list fails in milliseconds rather than after the runs
// before it.
func run(scale, list string) error {
	cfg, err := configFor(scale)
	if err != nil {
		return err
	}
	var picked []int
	for _, name := range strings.Split(list, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		found := false
		for i, x := range table {
			if x.name == name || (name == "all" && x.paper) {
				picked = append(picked, i)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown experiment %q (valid: %s)", name, validNames())
		}
	}
	e := &env{cfg: cfg, mobile: sync.OnceValues(func() ([]experiments.UpdateRow, error) {
		return experiments.UpdateExperiment(device.Mobile, cfg)
	})}
	for _, i := range picked {
		if err := table[i].run(e); err != nil {
			return fmt.Errorf("%s: %w", table[i].name, err)
		}
		if table[i].paper {
			fmt.Println()
		}
	}
	return nil
}

// configFor maps a -scale value to its experiment configuration.
func configFor(scale string) (experiments.Config, error) {
	switch scale {
	case "quick":
		return experiments.Quick(), nil
	case "default":
		return experiments.Default(), nil
	case "paper":
		return experiments.PaperScale(), nil
	case "paper-sample":
		return experiments.PaperSample(), nil
	default:
		return experiments.Config{}, fmt.Errorf("unknown scale %q", scale)
	}
}

func runAblations(e *env) error {
	for _, a := range []struct {
		title string
		run   func() ([]experiments.AblationRow, error)
	}{
		{"Dense-DPE encoding size M (mAP)",
			func() ([]experiments.AblationRow, error) { return experiments.AblationEncodingSize(e.cfg) }},
		{"Dense-DPE threshold t (mAP; the security/utility dial)",
			func() ([]experiments.AblationRow, error) { return experiments.AblationThreshold(e.cfg) }},
		{"training space: plaintext-Euclidean vs encoded-Hamming (mAP)",
			func() ([]experiments.AblationRow, error) { return experiments.AblationTrainingSpace(e.cfg) }},
		{"champion list size R (P@10 vs unbounded index)",
			func() ([]experiments.AblationRow, error) { return experiments.AblationChampionSize(e.cfg) }},
		{"rank fusion method (AP on topic query)",
			func() ([]experiments.AblationRow, error) { return experiments.AblationFusion(e.cfg) }},
	} {
		rows, err := a.run()
		if err != nil {
			return fmt.Errorf("%s: %w", a.title, err)
		}
		experiments.WriteAblationReport(os.Stdout, a.title, rows)
	}
	return nil
}

// withTempDir runs f with a scratch directory that is removed afterwards.
func withTempDir(f func(dir string) error) error {
	dir, err := os.MkdirTemp("", "mie-bench-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	return f(dir)
}

// save writes a system experiment's report as BENCH_<name>.json in the
// working directory.
func save(name string, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal report: %w", err)
	}
	path := "BENCH_" + name + ".json"
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s report written to %s\n", name, path)
	return nil
}
