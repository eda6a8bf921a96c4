package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpanRecordsPhaseHierarchy(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	timeNow = func() time.Time {
		now = now.Add(10 * time.Millisecond)
		return now
	}
	defer func() { timeNow = time.Now }()

	reg := NewRegistry()
	_, sp := StartSpan(context.Background(), reg, "rpc/search")
	child := sp.Child("decode")
	child.End()
	sp.Child("fusion").End()
	sp.End()

	for _, phase := range []string{"rpc/search", "rpc/search/decode", "rpc/search/fusion"} {
		h := reg.Histogram(L("phase_seconds", "phase", phase))
		if h.Count() != 1 {
			t.Errorf("phase %s count = %d, want 1", phase, h.Count())
		}
		if h.Sum() <= 0 {
			t.Errorf("phase %s sum = %v, want > 0", phase, h.Sum())
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	reg := NewRegistry()
	_, sp := StartSpan(context.Background(), reg, "p")
	sp.End()
	sp.End()
	if got := reg.Histogram(L("phase_seconds", "phase", "p")).Count(); got != 1 {
		t.Errorf("count after double End = %d, want 1", got)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var sp *Span
	if d := sp.End(); d != 0 {
		t.Errorf("nil End = %v", d)
	}
	if sp.Child("x") != nil {
		t.Error("nil Child should stay nil")
	}
	if _, z := StartSpan(context.Background(), nil, "z"); z != nil {
		t.Error("StartSpan with nil registry should return nil span")
	}
}

// TestSpanAllocs pins the heap allocations of an untraced root span with one
// child: the two Spans and nothing else. Each (parent phase, name) resolves
// its path and histogram once, so neither Child nor End builds a string.
func TestSpanAllocs(t *testing.T) {
	reg := NewRegistry()
	ctx := context.Background()
	got := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, reg, "repo/search")
		sp.Child("collect").End()
		sp.End()
	})
	if got != 2 {
		t.Errorf("%v allocations per StartSpan+Child+End, want 2", got)
	}
	for _, phase := range []string{"repo/search", "repo/search/collect"} {
		if n := reg.Histogram(L("phase_seconds", "phase", phase)).Count(); n != 101 {
			t.Errorf("phase %s count = %d, want 101", phase, n)
		}
	}
}

// TestPhasesBelongToTheirRegistry: a phase resolved in one registry records
// there only; the same path in another registry is its own series, and a
// span that never ends leaves no series behind.
func TestPhasesBelongToTheirRegistry(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	for _, reg := range []*Registry{a, a, b} {
		_, sp := StartSpan(context.Background(), reg, "op/search")
		c := sp.Child("engine")
		c.Child("lookup").End()
		c.End()
		sp.Child("never_ended")
		sp.End()
	}
	for reg, want := range map[*Registry]uint64{a: 2, b: 1} {
		for _, phase := range []string{"op/search", "op/search/engine", "op/search/engine/lookup"} {
			if n := reg.Histogram(L("phase_seconds", "phase", phase)).Count(); n != want {
				t.Errorf("phase %s count = %d, want %d", phase, n, want)
			}
		}
		if _, ok := reg.Snapshot().Histograms[L("phase_seconds", "phase", "op/search/never_ended")]; ok {
			t.Error("a span that never ended left a phase_seconds series")
		}
	}
}

// TestPhasesResolveOnceAcrossGoroutines: goroutines that start the same
// spans at once share one phase per path, so every observation lands in the
// one series.
func TestPhasesResolveOnceAcrossGoroutines(t *testing.T) {
	reg := NewRegistry()
	const workers, spans = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				_, sp := StartSpan(context.Background(), reg, "rpc/search")
				sp.Child("engine").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	for _, phase := range []string{"rpc/search", "rpc/search/engine"} {
		if n := reg.Histogram(L("phase_seconds", "phase", phase)).Count(); n != workers*spans {
			t.Errorf("phase %s count = %d, want %d", phase, n, workers*spans)
		}
	}
}
