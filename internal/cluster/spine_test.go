package cluster_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"mie/internal/cluster"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/dataset"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/vec"
)

// The shape the benchmark spine trains at (bench/spec.go's full scale):
// 48 px Flickr images, pyramid {16, 32}, Dense-DPE 2048 bits, a training
// sample of 3000 codes clustered into 200 words in at most 15 iterations.
const (
	spineSample = 3000
	spineWords  = 200
	spineIters  = 15
)

var (
	spineOnce  sync.Once
	spineCodes []vec.BitVec
	spineErr   error
)

// spineEncodings returns 2·spineSample image codes as the spine's client
// produces them, in object order: the first half is a training sample, the
// second a delta to refine with. Real codes matter: uniform random bits
// never converge and never prune, so they would time another program.
func spineEncodings(tb testing.TB) []vec.BitVec {
	tb.Helper()
	spineOnce.Do(func() {
		c, err := core.NewClient(core.ClientConfig{
			Key:     core.RepositoryKey{Master: crypto.Key{0x4d, 0x49, 0x45, 1}},
			Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 2048, Threshold: 0.5},
			Pyramid: imaging.PyramidParams{Scales: []int{16, 32}},
		})
		if err != nil {
			spineErr = err
			return
		}
		// 29 descriptors per image at this shape.
		for _, obj := range dataset.Flickr(dataset.FlickrParams{N: 2*spineSample/29 + 1, ImageSize: 48, Seed: 1}) {
			q, err := c.PrepareQuery(obj, 1)
			if err != nil {
				spineErr = err
				return
			}
			spineCodes = append(spineCodes, q.ImageEncodings...)
		}
		if len(spineCodes) < 2*spineSample {
			spineErr = fmt.Errorf("%d codes, want %d", len(spineCodes), 2*spineSample)
			return
		}
		spineCodes = spineCodes[:2*spineSample]
	})
	if spineErr != nil {
		tb.Fatal(spineErr)
	}
	return spineCodes
}

// TestHammingKMeansPinnedAcrossCommits pins, by SHA-256, what the first
// Train (three seeds) and the incremental one compute at the spine's shape.
// The digests were taken from the per-bit implementation the word-level
// kernels replaced; any change to a codebook, an assignment, an iteration
// count, the inertia or the drift report changes them.
func TestHammingKMeansPinnedAcrossCommits(t *testing.T) {
	codes := spineEncodings(t)
	sample, delta := codes[:spineSample], codes[spineSample:]
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.BigEndian.AppendUint64(nil, v)) }
	putCentroids := func(cs []vec.BitVec) {
		for _, c := range cs {
			for _, w := range codeWords(c) {
				put(w)
			}
		}
	}
	var first []vec.BitVec
	for seed := int64(1); seed <= 3; seed++ {
		res, err := cluster.HammingKMeans(sample, spineWords, cluster.Options{Seed: seed, MaxIter: spineIters})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %d iterations, inertia %v", seed, res.Iterations, res.Inertia)
		put(uint64(res.Iterations))
		put(math.Float64bits(res.Inertia))
		putCentroids(res.Centroids)
		for _, a := range res.Assignments {
			put(uint64(a))
		}
		if first == nil {
			first = res.Centroids
		}
	}
	ref, err := cluster.RefineHammingKMeans(first, delta, cluster.RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("refine: %d iterations, drift %+v", ref.Iterations, ref.Drift)
	put(uint64(ref.Iterations))
	put(math.Float64bits(ref.Drift.MeanShift))
	put(math.Float64bits(ref.Drift.MaxShift))
	put(math.Float64bits(ref.Drift.ReassignedFraction))
	putCentroids(ref.Centroids)

	const want = "8401a03164f53667ad2422c19113606ef88c659eca1fadf64d9562d9d89e2095"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// BenchmarkHammingKMeans is the first Train's clustering at the spine's
// shape: 3000 × 2048-bit codes into 200 words, at most 15 iterations.
func BenchmarkHammingKMeans(b *testing.B) {
	sample := spineEncodings(b)[:spineSample]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.HammingKMeans(sample, spineWords, cluster.Options{Seed: 1, MaxIter: spineIters}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefineHammingKMeans is the incremental Train's refinement at the
// spine's shape: the 200 words trained on one 3000-code sample, refined
// with the next 3000 codes under the options Train uses.
func BenchmarkRefineHammingKMeans(b *testing.B) {
	codes := spineEncodings(b)
	full, err := cluster.HammingKMeans(codes[:spineSample], spineWords, cluster.Options{Seed: 1, MaxIter: spineIters})
	if err != nil {
		b.Fatal(err)
	}
	delta := codes[spineSample:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.RefineHammingKMeans(full.Centroids, delta, cluster.RefineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// codeWords unpacks v's packed words from the binary codec that carries it
// on the wire (eight big-endian bytes a word, bit i at bit i%64 of word
// i/64), so a test reads a code without an accessor of its own.
func codeWords(v vec.BitVec) []uint64 {
	enc := vec.AppendBitVecs(nil, []vec.BitVec{v})
	enc = enc[len(enc)-8*((v.Len()+63)/64):]
	words := make([]uint64, len(enc)/8)
	for i := range words {
		words[i] = binary.BigEndian.Uint64(enc[8*i:])
	}
	return words
}
