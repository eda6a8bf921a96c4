package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if reg.Counter("reqs") != c {
		t.Error("second lookup returned a different counter")
	}
	g := reg.Gauge("inflight")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestLabelComposition(t *testing.T) {
	if got := L("reqs", "kind", "search", "code", "ok"); got != "reqs{kind=search,code=ok}" {
		t.Errorf("L = %q", got)
	}
	if got := L("plain"); got != "plain" {
		t.Errorf("L no labels = %q", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", 0.01, 0.1, 1)
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // third bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 90*0.005 + 10*0.5
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
	if p50 := h.Quantile(0.5); p50 <= 0 || p50 > 0.01 {
		t.Errorf("p50 = %v, want within first bucket", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 0.1 || p99 > 1 {
		t.Errorf("p99 = %v, want within third bucket", p99)
	}
	// Overflow bucket: quantile clamps to the largest finite bound.
	h.Observe(100)
	if q := h.Quantile(1); q != 1 {
		t.Errorf("overflow quantile = %v, want 1", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := newHistogram(nil)
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c").Inc()
				reg.Gauge("g").Add(1)
				reg.Histogram("h").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotAndExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(L("requests_total", "kind", "search")).Add(3)
	reg.Gauge("repo_objects{repo=photos}").Set(12)
	reg.Histogram(L("request_seconds", "kind", "search"), 0.01, 0.1).Observe(0.05)

	snap := reg.Snapshot()
	if snap.Counters["requests_total{kind=search}"] != 3 {
		t.Errorf("snapshot counters = %+v", snap.Counters)
	}
	hs, ok := snap.Histograms["request_seconds{kind=search}"]
	if !ok || hs.Count != 1 {
		t.Fatalf("snapshot histograms = %+v", snap.Histograms)
	}
	if len(hs.Buckets) != 3 || hs.Buckets[len(hs.Buckets)-1].Le != "+Inf" {
		t.Errorf("buckets = %+v", hs.Buckets)
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["requests_total{kind=search}"] != 3 {
		t.Errorf("JSON round-trip counters = %+v", round.Counters)
	}
	// mie-client -v prints this JSON: it carries each histogram's quantiles.
	if got := round.Histograms["request_seconds{kind=search}"]; got.P50 != hs.P50 || got.P95 != hs.P95 || got.P99 != hs.P99 || got.P99 <= 0 {
		t.Errorf("JSON round-trip quantiles = %+v, want %+v", got, hs)
	}
}
