package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is BENCHMARK.json as the driver reads it; the comparison uses
// its workloads and end-to-end bounds.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// side is one side of a comparison: the untraced results of one file.
type side struct {
	values map[string]map[string][]float64 // workload → metric → one value per run
	failed map[string]int                  // workload → Σ failed
	runs   map[string]int
}

func loadSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{values: map[string]map[string][]float64{}, failed: map[string]int{}, runs: map[string]int{}}
	dec := json.NewDecoder(f)
	for n := 1; dec.More(); n++ {
		var res result
		if err := dec.Decode(&res); err != nil {
			return nil, fmt.Errorf("%s: result %d: %w", path, n, err)
		}
		if res.Trace {
			continue
		}
		if s.values[res.Workload] == nil {
			s.values[res.Workload] = map[string][]float64{}
		}
		for name, v := range res.EndToEnd {
			s.values[res.Workload][name] = append(s.values[res.Workload][name], v.Value)
		}
		s.failed[res.Workload] += res.Failed
		s.runs[res.Workload]++
	}
	return s, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the A/B table.
type comparison struct {
	metric string
	a, b   [3]float64 // q1, median, q3
	// worse is B's median against A's as a share of A's, positive when B is
	// worse in the metric's direction.
	worse   float64
	spread  float64 // the wider side's interquartile range over its median
	bound   float64
	verdict string
}

// compareMetric applies the regression rule to one metric's runs on both
// sides. B's median worse than A's by more than the bound is a regression,
// and anything else is ok, as long as neither side's run-to-run spread is
// wider than the bound. Where one is, the medians alone decide nothing and
// the pair is unresolved, unless the sides do not overlap at all: every run
// of B better than every run of A is ok, every run of B worse than every run
// of A with the median past the bound is a regression however wide the
// spread.
func compareMetric(sp metricSpec, a, b []float64) (comparison, error) {
	c := comparison{metric: sp.Name, bound: sp.Bound}
	var err error
	if c.a[0], c.a[1], c.a[2], err = quartiles(a); err != nil {
		return c, err
	}
	if c.b[0], c.b[1], c.b[2], err = quartiles(b); err != nil {
		return c, err
	}
	if c.a[1] == 0 {
		return c, fmt.Errorf("median of side A is zero")
	}
	dir := 1.0 // multiplying a value by dir makes lower better
	if sp.Better == "higher" {
		dir = -1
	}
	c.worse = dir * (c.b[1] - c.a[1]) / c.a[1]
	for _, q := range [][3]float64{c.a, c.b} {
		if q[1] != 0 && (q[2]-q[0])/q[1] > c.spread {
			c.spread = (q[2] - q[0]) / q[1]
		}
	}
	allBetter, allWorse := true, true
	for _, va := range a {
		for _, vb := range b {
			allBetter = allBetter && dir*vb < dir*va
			allWorse = allWorse && dir*vb > dir*va
		}
	}
	steady := c.spread <= c.bound
	switch {
	case c.worse > c.bound && (steady || allWorse):
		c.verdict = verdictRegressed
	case steady || allBetter:
		c.verdict = verdictOK
	default:
		c.verdict = verdictUnresolved
	}
	return c, nil
}

// compareSides compares every (workload, end-to-end metric) pair present on
// both sides and reports whether any regressed or B failed more than A. It
// ends with a count of the verdicts, so that unresolved pairs are not taken
// for a pass.
func compareSides(spec *benchmarkSpec, a, b *side, w io.Writer) (bad bool, err error) {
	verdicts := map[string]int{}
	fmt.Fprintf(w, "%-15s %-26s %12s %12s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		if a.runs[wl.Name] == 0 || b.runs[wl.Name] == 0 {
			continue
		}
		for _, sp := range spec.EndToEnd {
			c, err := compareMetric(sp, a.values[wl.Name][sp.Name], b.values[wl.Name][sp.Name])
			if err != nil {
				return true, fmt.Errorf("%s %s: %w", wl.Name, sp.Name, err)
			}
			fmt.Fprintf(w, "%-15s %-26s %12.6g %12.4g %12.6g %12.4g %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				wl.Name, sp.Name, c.a[1], c.a[2]-c.a[0], c.b[1], c.b[2]-c.b[0], c.worse*100, c.spread*100, c.bound*100, c.verdict)
			verdicts[c.verdict]++
		}
		if b.failed[wl.Name] > a.failed[wl.Name] {
			fmt.Fprintf(w, "%-15s failed operations or checks rose from %d to %d\n", wl.Name, a.failed[wl.Name], b.failed[wl.Name])
			bad = true
		}
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved (spread wider than the bound: make more runs of both sides, interleaved)\n",
		verdicts[verdictOK], verdicts[verdictRegressed], verdicts[verdictUnresolved])
	return bad || verdicts[verdictRegressed] > 0, nil
}

func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare needs two result files, got %d", len(args))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadSide(args[0])
	if err != nil {
		return err
	}
	b, err := loadSide(args[1])
	if err != nil {
		return err
	}
	workloads := make([]string, 0, len(a.runs))
	for name, n := range a.runs {
		workloads = append(workloads, fmt.Sprintf("%s A=%d B=%d", name, n, b.runs[name]))
	}
	sort.Strings(workloads)
	fmt.Printf("runs: %v\n", workloads)
	bad, err := compareSides(spec, a, b, os.Stdout)
	if err != nil {
		return err
	}
	if bad {
		return fmt.Errorf("B regressed against A")
	}
	return nil
}
