package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mie/internal/dpe"
	"mie/internal/obs"
	"mie/internal/vec"
)

// phaseSum reads the accumulated phase_seconds histogram for a span path.
func phaseSum(path string) float64 {
	return obs.Default().Histogram(obs.L("phase_seconds", "phase", path)).Sum()
}

// TestModalityLookupsRunInParallel verifies — via the recorded span timings
// the server path exports — that per-modality lookups fan out concurrently:
// the repo/search phase must cost about max(text_lookup, image_lookup), not
// their sum. The corpus is sized so both linear scans take measurable time,
// and the best of several runs is compared so scheduler noise cannot fail a
// genuinely parallel implementation.
func TestModalityLookupsRunInParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 CPU to observe lookup parallelism")
	}
	r, err := NewRepository("spans", smallRepoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	// Untrained: both modalities take the linear-scan path, whose cost we
	// control directly through corpus and query sizes.
	rng := rand.New(rand.NewSource(42))
	randVec := func() vec.BitVec {
		words := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		v, err := vec.BitVecFromWords(words, 256)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	const objects = 1500
	tokens := make([]dpe.Token, 64)
	for i := range tokens {
		rng.Read(tokens[i][:])
	}
	for i := 0; i < objects; i++ {
		toks := make(map[dpe.Token]uint64, len(tokens))
		for _, tok := range tokens {
			toks[tok] = uint64(i%7 + 1)
		}
		encs := make([]vec.BitVec, 16)
		for j := range encs {
			encs[j] = randVec()
		}
		r.objects.Put(fmt.Sprintf("sp-%d", i), &storedObject{
			owner:      "spans",
			textTokens: toks,
			imageEncs:  encs,
		})
	}
	q := &Query{K: 10}
	q.TextTokens = make(map[dpe.Token]uint64, len(tokens))
	for _, tok := range tokens {
		q.TextTokens[tok] = 1
	}
	for j := 0; j < 16; j++ {
		q.ImageEncodings = append(q.ImageEncodings, randVec())
	}

	best := 10.0
	var bestSearch, bestText, bestImage float64
	for iter := 0; iter < 6; iter++ {
		s0, t0, i0 := phaseSum("repo/search"), phaseSum("repo/search/text_lookup"), phaseSum("repo/search/image_lookup")
		if _, err := r.Search(q); err != nil {
			t.Fatal(err)
		}
		dS := phaseSum("repo/search") - s0
		dT := phaseSum("repo/search/text_lookup") - t0
		dI := phaseSum("repo/search/image_lookup") - i0
		if dT+dI <= 0 {
			t.Fatalf("iter %d: lookup spans recorded no time (dT=%g dI=%g)", iter, dT, dI)
		}
		if ratio := dS / (dT + dI); ratio < best {
			best, bestSearch, bestText, bestImage = ratio, dS, dT, dI
		}
	}
	t.Logf("best run: search=%.4fs text=%.4fs image=%.4fs ratio=%.2f", bestSearch, bestText, bestImage, best)
	// Sequential lookups would give ratio >= 1 (search ≈ sum + fusion);
	// parallel ones give ratio ≈ max/(sum) plus overhead. 0.95 cleanly
	// separates the two even when one modality dominates.
	if best >= 0.95 {
		t.Errorf("search span = %.2fx the summed lookup spans; lookups do not appear to run in parallel", best)
	}
}

// TestTrainSpansPartitionTheRun traces one Train of each mode and checks the
// children of repo/train are what the pipeline's steps are called, one after
// the other: none overlaps the next (a span left open over a later step would
// count that step twice) and together they fit inside the parent.
func TestTrainSpansPartitionTheRun(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("train-spans", smallRepoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 4, 3)
	tracer := obs.NewTracer(obs.NewRegistry(), 1)
	trainTraced := func(mode string, want ...string) {
		t.Helper()
		ctx, at := tracer.ForceTrace(context.Background())
		if err := r.TrainContext(ctx); err != nil {
			t.Fatal(err)
		}
		if got := r.LastTrain().Mode; got != mode {
			t.Fatalf("train mode = %q, want %q", got, mode)
		}
		spans := at.Finish().Spans // sorted by start
		var parent obs.SpanRecord
		for _, s := range spans {
			if s.Name == "repo/train" {
				parent = s
			}
		}
		var names []string
		var sum, prevEnd int64
		for _, s := range spans {
			if s.ParentID != parent.SpanID || s.SpanID == parent.SpanID {
				continue
			}
			if s.StartUnixNano < prevEnd {
				t.Errorf("%s train: %s starts before %s has ended", mode, s.Name, names[len(names)-1])
			}
			prevEnd = s.StartUnixNano + s.DurationNanos
			sum += s.DurationNanos
			names = append(names, s.Name[len("repo/train/"):])
		}
		if fmt.Sprint(names) != fmt.Sprint(want) {
			t.Errorf("%s train: children of repo/train = %v, want %v", mode, names, want)
		}
		if sum > parent.DurationNanos {
			t.Errorf("%s train: children sum to %dns, more than the parent's %dns", mode, sum, parent.DurationNanos)
		}
	}
	trainTraced("full", "image_codebook", "build_indexes", "reindex")
	for i := 0; i < 5; i++ {
		putObject(t, c, r, testObject(1, 100+i))
	}
	trainTraced("incremental", "image_codebook", "reindex")
}
