package experiments

import "testing"

// TestTenancySeedThreaded: the tenancy report must pin the dataset seed it
// was generated from, so a published BENCH_tenancy.json names its exact
// workload.
func TestTenancySeedThreaded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a (small) tenancy experiment")
	}
	cfg := Quick()
	cfg.TenancyRepos = 24
	cfg.Seed = 42

	report, err := TenancyExperiment(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if report.Seed != cfg.Seed {
		t.Fatalf("report seed %d, want the configured %d", report.Seed, cfg.Seed)
	}
}

// The tenancy gates, at quick scale: 500 repositories churned through lazy
// activation and LRU eviction under a 16 MiB budget. Every acknowledged
// write must survive the churn, and the resident accounting must never
// overshoot the budget by more than 10% (transiently, while the eviction
// pass catches up).
func TestTenancyExperimentGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick-scale tenancy experiment")
	}
	report, err := TenancyExperiment(Quick(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if report.LostAcks != 0 {
		t.Errorf("lost %d of %d acknowledged writes across eviction churn", report.LostAcks, report.AckedWrites)
	}
	if report.MaxOverBudgetFraction > 0.10 {
		t.Errorf("resident accounting overshot the memory budget by %.1f%% (> 10%%)", 100*report.MaxOverBudgetFraction)
	}
}
