package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mie/internal/dpe"
)

// textShapeUpdates returns n pre-encoded text-only updates at fanout-small's
// document shape: 6 to 17 words each, drawn Zipf-wise from a 5000-word
// vocabulary the way dataset.SyntheticText draws them.
func textShapeUpdates(rng *rand.Rand, n int) []*Update {
	zipf := rand.NewZipf(rng, 1.2, 2.0, 4999)
	ups := make([]*Update, n)
	for i := range ups {
		up := &Update{ObjectID: fmt.Sprintf("text-%06d", i), Owner: "u", Ciphertext: make([]byte, 256), TextTokens: map[dpe.Token]uint64{}}
		rng.Read(up.Ciphertext)
		for j := 6 + rng.Intn(12); j > 0; j-- {
			w := zipf.Uint64()
			up.TextTokens[dpe.Token{byte(w), byte(w >> 8)}]++
		}
		ups[i] = up
	}
	return ups
}

// trainedRepository returns a trained repository holding ups.
func trainedRepository(tb testing.TB, opts RepositoryOptions, ups []*Update) *Repository {
	tb.Helper()
	r, err := NewRepository("trained-search", opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = r.Close() })
	for _, up := range ups {
		if err := r.UpdateContext(context.Background(), up); err != nil {
			tb.Fatal(err)
		}
	}
	if err := r.TrainContext(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestTrainedSearchAllocs pins the heap allocations of one in-process trained
// text search at fanout-small's shape: a 50-document repository, k = 10. A
// lone modality asks its index for k, ranks that list as it stands, probes
// each winner once and resolves its spans' histograms once. The query's
// tokens arrive sorted and become index terms sliced from one string. What is
// left: that string and the term list, the four spans, the lookup's result,
// the ranked list and the hits. The index's scratch comes from a sync.Pool, which the
// race detector empties at random, so the count only holds without it.
func TestTrainedSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector")
	}
	ups := textShapeUpdates(rand.New(rand.NewSource(1)), 50)
	r := trainedRepository(t, RepositoryOptions{}, ups)
	q := &Query{K: 10, TextTokens: SortedTokens(ups[0].TextTokens)}
	hits, err := r.SearchContext(context.Background(), q)
	if err != nil || len(hits) != q.K {
		t.Fatalf("search: %d hits, %v; want %d", len(hits), err, q.K)
	}
	const want = 9
	if got := testing.AllocsPerRun(100, func() { _, _ = r.SearchContext(context.Background(), q) }); got != want {
		t.Errorf("%v allocations per trained text search, want %v", got, want)
	}
}

var hitsSink []SearchHit

// BenchmarkTrainedSearch is one in-process trained search at the spine's
// shapes: "text" is fanout-small's (a pre-encoded text query on a
// 50-document repository, k = 10), "image+text" search-large's engine shape
// (29 codes of 2048 bits and two text tokens per object, 200 visual words,
// tree 4×3, k = 10) on 128 objects.
func BenchmarkTrainedSearch(b *testing.B) {
	text := textShapeUpdates(rand.New(rand.NewSource(1)), 50)
	spine := spineShapeUpdates(rand.New(rand.NewSource(1)), 128)
	for _, bc := range []struct {
		name string
		opts RepositoryOptions
		ups  []*Update
		q    *Query
	}{
		{"text", RepositoryOptions{}, text, &Query{K: 10, TextTokens: SortedTokens(text[0].TextTokens)}},
		{"image+text", RepositoryOptions{VocabWords: 200, VocabMaxIter: 5, TreeBranch: 4, TreeHeight: 3, TreeSeed: 1, TrainingSampleCap: 3000},
			spine, &Query{K: 10, TextTokens: SortedTokens(spine[0].TextTokens), ImageEncodings: spine[0].ImageEncodings}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := trainedRepository(b, bc.opts, bc.ups)
			b.ReportAllocs()
			b.ResetTimer()
			var err error
			for i := 0; i < b.N; i++ {
				if hitsSink, err = r.SearchContext(context.Background(), bc.q); err != nil || len(hitsSink) == 0 {
					b.Fatalf("search: %d hits, %v", len(hitsSink), err)
				}
			}
		})
	}
}
