package index

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

var benchSink atomic.Int64

// lookupShape is one index and query mix of the trained-search read path.
type lookupShape struct {
	name    string
	index   *Segmented
	queries [][]QueryTerm
}

// lookupDepth is the fusion depth the spine's searches ask each modality for.
const lookupDepth = 100

// lookupShapes builds the read path's shapes on sealed segments. "image" is
// the image modality's shape on the search-large workload: 1500 documents of
// 29 descriptors quantised over 200 visual words, queried with a
// document-shaped histogram. "text" is a Zipf vocabulary with short keyword
// queries. Each comes on 1 and on 4 segments. The caller closes the indexes.
func lookupShapes() []lookupShape {
	const docs = 1500
	specs := []struct {
		name                    string
		vocab, perDoc, perQuery int
		zipf                    bool
	}{
		{name: "image", vocab: 200, perDoc: 29, perQuery: 29},
		{name: "text", vocab: 5000, perDoc: 40, perQuery: 4, zipf: true},
	}
	var shapes []lookupShape
	for _, spec := range specs {
		for _, segments := range []int{1, 4} {
			rng := rand.New(rand.NewSource(5))
			word := func() int { return rng.Intn(spec.vocab) }
			if spec.zipf {
				z := rand.NewZipf(rng, 1.1, 1, uint64(spec.vocab-1))
				word = func() int { return int(z.Uint64()) }
			}
			draw := func(n int) map[Term]uint64 {
				terms := make(map[Term]uint64, n)
				for i := 0; i < n; i++ {
					terms[Term(fmt.Sprintf("w%d", word()))]++
				}
				return terms
			}
			s := NewSegmented(SegmentedOptions{MemtableCap: -1})
			for i := 0; i < docs; i++ {
				s.Add(DocID(fmt.Sprintf("obj-%05d", i)), draw(spec.perDoc))
				if (i+1)%(docs/segments) == 0 {
					s.Seal()
				}
			}
			queries := make([][]QueryTerm, 256)
			for i := range queries {
				queries[i] = SortedTerms(draw(spec.perQuery))
			}
			shapes = append(shapes, lookupShape{
				name:    fmt.Sprintf("%s/segments=%d", spec.name, segments),
				index:   s,
				queries: queries,
			})
		}
	}
	return shapes
}

// BenchmarkSegmentedLookup measures the trained-search read path on the
// lookupShapes at fusion depth 100. Run it at -cpu 1,2: readers share nothing
// but the facade read lock, so ns/op must fall with cores.
func BenchmarkSegmentedLookup(b *testing.B) {
	for _, shape := range lookupShapes() {
		b.Run(shape.name, func(b *testing.B) {
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				n := 0
				for pb.Next() {
					q := shape.queries[next.Add(1)%int64(len(shape.queries))]
					n += len(shape.index.Lookup(q, lookupDepth))
				}
				benchSink.Add(int64(n))
			})
		})
		shape.index.Close()
	}
}

// TestLookupAllocs pins the heap allocations of one Lookup at the benchmark's
// shapes: the returned slice. Everything else — the terms' weights, the score
// accumulator, the candidate buffer, the per-segment column table — is reused
// across lookups. The race detector's sync.Pool drops a share of
// what is put back, so the count only holds without it.
func TestLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector")
	}
	want := map[string]float64{
		"image/segments=1": 1,
		"image/segments=4": 1,
		"text/segments=1":  1,
		"text/segments=4":  1,
	}
	for _, shape := range lookupShapes() {
		next := 0
		got := testing.AllocsPerRun(100, func() {
			shape.index.Lookup(shape.queries[next%len(shape.queries)], lookupDepth)
			next++
		})
		shape.index.Close()
		if got != want[shape.name] {
			t.Errorf("%s: %v allocations per Lookup, want %v", shape.name, got, want[shape.name])
		}
	}
}
