package index

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

var benchSink atomic.Int64

// BenchmarkSegmentedLookup measures the trained-search read path on sealed
// segments. "image" is the image modality's shape on the search-large
// workload: 1500 documents of 29 descriptors quantised over 200 visual words,
// queried with a document-shaped histogram at fusion depth 100. "text" is a
// Zipf vocabulary with short keyword queries. Run it at -cpu 1,2: readers
// share nothing but the facade read lock, so ns/op must fall with cores.
func BenchmarkSegmentedLookup(b *testing.B) {
	const docs, depth = 1500, 100
	shapes := []struct {
		name                    string
		vocab, perDoc, perQuery int
		zipf                    bool
	}{
		{name: "image", vocab: 200, perDoc: 29, perQuery: 29},
		{name: "text", vocab: 5000, perDoc: 40, perQuery: 4, zipf: true},
	}
	for _, shape := range shapes {
		for _, segments := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/segments=%d", shape.name, segments), func(b *testing.B) {
				rng := rand.New(rand.NewSource(5))
				word := func() int { return rng.Intn(shape.vocab) }
				if shape.zipf {
					z := rand.NewZipf(rng, 1.1, 1, uint64(shape.vocab-1))
					word = func() int { return int(z.Uint64()) }
				}
				draw := func(n int) map[Term]uint64 {
					terms := make(map[Term]uint64, n)
					for i := 0; i < n; i++ {
						terms[Term(fmt.Sprintf("w%d", word()))]++
					}
					return terms
				}
				s, err := NewSegmented(SegmentedOptions{MemtableCap: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				for i := 0; i < docs; i++ {
					if err := s.Add(DocID(fmt.Sprintf("obj-%05d", i)), draw(shape.perDoc)); err != nil {
						b.Fatal(err)
					}
					if (i+1)%(docs/segments) == 0 {
						if err := s.Seal(); err != nil {
							b.Fatal(err)
						}
					}
				}
				queries := make([]map[Term]uint64, 256)
				for i := range queries {
					queries[i] = draw(shape.perQuery)
				}
				var next atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					n := 0
					for pb.Next() {
						q := queries[next.Add(1)%int64(len(queries))]
						n += len(s.Lookup(q, depth))
					}
					benchSink.Add(int64(n))
				})
			})
		}
	}
}
