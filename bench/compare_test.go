package main

import (
	"io"
	"path/filepath"
	"testing"
)

func TestCompareMetricVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name    string
		sp      metricSpec
		a, b    []float64
		verdict string
	}{
		{"same", lower, []float64{1.00, 1.01, 0.99}, []float64{1.00, 1.02, 0.99}, verdictOK},
		{"slower within bound", lower, []float64{1.00, 1.01, 0.99}, []float64{1.05, 1.06, 1.04}, verdictOK},
		{"slower past bound", lower, []float64{1.00, 1.01, 0.99}, []float64{1.20, 1.21, 1.19}, verdictRegressed},
		{"faster", lower, []float64{1.00, 1.01, 0.99}, []float64{0.50, 0.51, 0.49}, verdictOK},
		{"throughput down past bound", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictRegressed},
		{"throughput up", higher, []float64{100, 101, 99}, []float64{130, 131, 129}, verdictOK},
		{"spread wider than bound", lower, []float64{1.0, 1.3, 0.8}, []float64{1.1, 1.2, 0.9}, verdictUnresolved},
		{"wide spread but every run better", lower, []float64{1.0, 1.3, 0.9}, []float64{0.5, 0.6, 0.4}, verdictOK},
		{"wide spread but every run worse, past bound", lower, []float64{1.0, 1.3, 0.9}, []float64{1.6, 2.1, 1.5}, verdictRegressed},
		{"wide spread, throughput down on every run", higher, []float64{100, 130, 90}, []float64{60, 80, 50}, verdictRegressed},
		{"wide spread, every run worse but within bound", lower, []float64{1.00, 1.01, 0.99}, []float64{1.02, 1.25, 1.03}, verdictUnresolved},
		{"wide spread, median past bound, sides overlap", lower, []float64{1.0, 1.3, 0.8}, []float64{1.2, 1.6, 0.9}, verdictUnresolved},
	} {
		got, err := compareMetric(c.sp, c.a, c.b)
		if err != nil || got.verdict != c.verdict {
			t.Errorf("%s: verdict %q (worse %+.3f, spread %.3f), %v; want %q", c.name, got.verdict, got.worse, got.spread, err, c.verdict)
		}
	}
	if _, err := compareMetric(lower, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("a side with one run was compared")
	}
}

func writeRuns(t *testing.T, path string, p50s []float64, failed int) {
	t.Helper()
	for _, v := range p50s {
		res := &result{Workload: wlFanoutSmall, Failed: failed, EndToEnd: map[string]metricValue{"op_p50_ms": {v, "ms"}}}
		if err := appendJSONLine(path, res); err != nil {
			t.Fatal(err)
		}
	}
	// A traced result in the same file is not an end-to-end run.
	if err := appendJSONLine(path, &result{Workload: wlFanoutSmall, Trace: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareSidesExitRule(t *testing.T) {
	spec := &benchmarkSpec{
		Workloads: []workloadSpec{{Name: wlFanoutSmall}, {Name: wlSearchLarge}},
		EndToEnd:  []metricSpec{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
	}
	dir := t.TempDir()
	load := func(name string, p50s []float64, failed int) *side {
		path := filepath.Join(dir, name)
		writeRuns(t, path, p50s, failed)
		s, err := loadSide(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.runs[wlFanoutSmall] != len(p50s) {
			t.Fatalf("%s: loaded %d runs, want %d", name, s.runs[wlFanoutSmall], len(p50s))
		}
		return s
	}
	base := load("a.jsonl", []float64{1.00, 1.01, 0.99}, 0)
	for _, c := range []struct {
		name string
		b    *side
		bad  bool
	}{
		{"same", load("same.jsonl", []float64{1.00, 1.02, 0.98}, 0), false},
		{"regressed", load("slow.jsonl", []float64{1.30, 1.31, 1.29}, 0), true},
		{"regressed behind a wide spread", load("slow-wide.jsonl", []float64{1.30, 1.90, 1.50}, 0), true},
		{"unresolved", load("wide.jsonl", []float64{0.80, 1.30, 1.00}, 0), false},
		{"more failures", load("fail.jsonl", []float64{1.00, 1.01, 0.99}, 1), true},
	} {
		bad, err := compareSides(spec, base, c.b, io.Discard)
		if err != nil || bad != c.bad {
			t.Errorf("%s: bad = %v, %v; want %v", c.name, bad, err, c.bad)
		}
	}
}

// TestBaselineResultsLoad: the committed baselines are readable by compare
// and hold at least three untraced runs of every workload on each side.
func TestBaselineResultsLoad(t *testing.T) {
	spec := readBenchmarkFile(t)
	for _, name := range []string{"baseline-a.jsonl", "baseline-b.jsonl"} {
		s, err := loadSide(filepath.Join("results", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range spec.Workloads {
			if s.runs[w.Name] < 3 {
				t.Errorf("%s: %d untraced runs of %s, want at least 3", name, s.runs[w.Name], w.Name)
			}
			for _, sp := range spec.EndToEnd {
				if len(s.values[w.Name][sp.Name]) != s.runs[w.Name] {
					t.Errorf("%s: %s %s has %d values over %d runs", name, w.Name, sp.Name, len(s.values[w.Name][sp.Name]), s.runs[w.Name])
				}
			}
			if s.failed[w.Name] != 0 {
				t.Errorf("%s: %s baseline has %d failures", name, w.Name, s.failed[w.Name])
			}
		}
	}
}
