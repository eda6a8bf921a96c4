package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mie/internal/index"
)

// FuzzFuse holds every method to fuseReference on lists the fuzzer writes.
// The first byte picks how many lists (0–3); each list is a length byte, then
// one byte per hit naming one of 16 documents, so documents recur across
// lists (and now and then inside one) and fused scores tie. k ranges past the
// total.
func FuzzFuse(f *testing.F) {
	f.Add([]byte{0}, uint8(1))                         // no lists
	f.Add([]byte{1, 3, 0, 1, 2}, uint8(2))             // one list
	f.Add([]byte{3, 0, 4, 5, 6, 7, 8, 0}, uint8(3))    // one list between empty ones
	f.Add([]byte{2, 3, 0, 1, 2, 3, 2, 1, 0}, uint8(3)) // documents in both lists
	f.Add([]byte{3, 1, 0, 1, 1, 1, 2}, uint8(2))       // equal fused scores
	f.Add([]byte{2, 3, 0, 1, 2, 2, 2, 3}, uint8(50))   // k above the total
	f.Add([]byte{1, 4, 5, 6, 5, 7}, uint8(4))          // one list naming a document twice
	f.Add([]byte{3, 11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 11, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 5, 3, 6, 9, 12, 15}, uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		lists := make([][]index.Result, next()%4)
		for i := range lists {
			n := next() % 12
			for j := 0; j < n; j++ {
				lists[i] = append(lists[i], index.Result{Doc: index.DocID(fmt.Sprintf("d%02d", next()%16)), Score: float64(n - j)})
			}
		}
		for _, method := range []Method{LogISR, ISR, RRF} {
			got, want := Fuse(method, lists, int(k)), fuseReference(method, lists, int(k))
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i].Doc == want[i].Doc && math.Float64bits(got[i].Score) == math.Float64bits(want[i].Score)
			}
			if !same {
				t.Fatalf("method %d, k %d, lists %v\ngot  %v\nwant %v", method, k, lists, got, want)
			}
		}
	})
}

// BenchmarkFuse measures fusion at the spine's shape: an image list and a
// text list of depth 100, drawn from 1500 documents, fused to k = 10
// ("lists=2"), and a query that carried one modality ("lists=1").
func BenchmarkFuse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ranked := func() []index.Result {
		list := make([]index.Result, 100)
		for i, doc := range rng.Perm(1500)[:len(list)] {
			list[i] = index.Result{Doc: index.DocID(fmt.Sprintf("obj-%05d", doc)), Score: float64(len(list) - i)}
		}
		return list
	}
	image, text := ranked(), ranked()
	for _, bc := range []struct {
		name  string
		lists [][]index.Result
	}{
		{"lists=2", [][]index.Result{image, text}},
		{"lists=1", [][]index.Result{image}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Fuse(LogISR, bc.lists, 10)
			}
		})
	}
}
