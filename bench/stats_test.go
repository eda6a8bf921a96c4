package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(1000) // 1..1000
	for _, c := range []struct{ p, want float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}, {0.001, 1}} {
		got, err := percentile(s, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..1000 = %v, %v; want %v", c.p*100, got, err, c.want)
		}
	}
	// Nearest rank rounds up: p50 of 1..21 is the 11th value.
	if got, err := percentile(seq(21), 0.5); err != nil || got != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", got, err)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// p95 needs ten samples beyond rank ceil(0.95 n): n = 200 is the least.
	if _, err := percentile(seq(199), 0.95); err == nil {
		t.Error("p95 of 199 samples was reported with 9 samples beyond it")
	}
	if v, err := percentile(seq(200), 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 200 samples = %v, %v; want 190", v, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was reported with 9 samples beyond it")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("p50 of no samples was reported")
	}
	for _, p := range []float64{0, 1, -0.1, 1.5} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("percentile %v was accepted", p)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) returns, which the benchmark contract's
// spread rule is written against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30, 40, 50, 60}, 17.5, 35, 52.5},
	} {
		q1, q2, q3, err := quartiles(c.values)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v %v %v", c.values, q1, q2, q3, err, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value were reported")
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v", got)
	}
	if got := medianOf([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of 4 values = %v", got)
	}
}
