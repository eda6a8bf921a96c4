package dpe

import (
	"runtime"
	"testing"

	"mie/internal/vec"
)

var benchSink []vec.BitVec

// BenchmarkDenseDPEEncode measures the client's encode at the shapes that
// run: 29 descriptors of 64 components is one 64x64 image through the dense
// pyramid, 2048 bits is the spine's and the experiments' code length, 512
// the NewDense default. "one" is the single-vector entry point Table II and
// the bench tracer call; "all" fans out over GOMAXPROCS workers, as the
// client's does, so -cpu shows the width's gain.
func BenchmarkDenseDPEEncode(b *testing.B) {
	byOne, all := entryPoints[0].encode, encodeAllWith(runtime.GOMAXPROCS(0))
	for _, bc := range []struct {
		name   string
		n, out int
		encode func(*Dense, [][]float64) ([]vec.BitVec, error)
	}{{"one/2048", 1, 2048, byOne}, {"all29/2048", 29, 2048, all}, {"all29/512", 29, 512, all}} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := NewDense(testKey(1), DenseParams{InDim: 64, OutDim: bc.out, Threshold: 0.5})
			if err != nil {
				b.Fatal(err)
			}
			descs := seededDescriptors(1, bc.n, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchSink, err = bc.encode(d, descs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
