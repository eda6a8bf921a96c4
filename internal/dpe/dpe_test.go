package dpe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mie/internal/crypto"
	"mie/internal/vec"
)

func testKey(b byte) crypto.Key {
	var k crypto.Key
	for i := range k {
		k[i] = b
	}
	return k
}

// randomPair returns two unit-norm-bounded vectors at exactly Euclidean
// distance d from each other (d <= 1).
func randomPair(rng *rand.Rand, dim int, d float64) (p1, p2 []float64) {
	p1 = make([]float64, dim)
	dir := make([]float64, dim)
	for i := range p1 {
		p1[i] = rng.NormFloat64()
		dir[i] = rng.NormFloat64()
	}
	vec.Normalize(p1)
	vec.Scale(p1, 0.5) // keep points in a ball so distances stay <= 1
	vec.Normalize(dir)
	p2 = vec.Clone(p1)
	for i := range p2 {
		p2[i] += dir[i] * d
	}
	return p1, p2
}

func newTestDense(t *testing.T, threshold float64) *Dense {
	t.Helper()
	d, err := NewDense(testKey(1), DenseParams{InDim: 64, OutDim: 2048, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDenseValidation(t *testing.T) {
	tests := []struct {
		name   string
		params DenseParams
	}{
		{name: "zero in dim", params: DenseParams{InDim: 0, Threshold: 0.5}},
		{name: "negative out dim", params: DenseParams{InDim: 4, OutDim: -1, Threshold: 0.5}},
		{name: "zero threshold", params: DenseParams{InDim: 4, Threshold: 0}},
		{name: "threshold above one", params: DenseParams{InDim: 4, Threshold: 1.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewDense(testKey(1), tt.params); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestNewDenseDefaultOutDim(t *testing.T) {
	d, err := NewDense(testKey(1), DenseParams{InDim: 64, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if d.outDim != 512 {
		t.Errorf("default OutDim = %d, want 512", d.outDim)
	}
}

func TestDenseEncodeDeterministic(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(1))
	p, _ := randomPair(rng, 64, 0)
	e1, err := d.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(e1, e2) {
		t.Error("same plaintext encoded to different encodings")
	}
}

func TestDenseEncodeKeyDependence(t *testing.T) {
	p := make([]float64, 64)
	for i := range p {
		p[i] = float64(i) / 128
	}
	d1, err := NewDense(testKey(1), DenseParams{InDim: 64, OutDim: 512, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense(testKey(2), DenseParams{InDim: 64, OutDim: 512, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := d1.Encode(p)
	e2, _ := d2.Encode(p)
	// Under different keys the encodings should look unrelated (~half bits differ).
	nh := vec.NormHamming(e1, e2)
	if nh < 0.35 || nh > 0.65 {
		t.Errorf("cross-key NormHamming = %v, want ~0.5", nh)
	}
}

func TestDenseEncodeDimensionCheck(t *testing.T) {
	d := newTestDense(t, 0.5)
	if _, err := d.Encode(make([]float64, 63)); !errors.Is(err, ErrBadDimension) {
		t.Errorf("err = %v, want ErrBadDimension", err)
	}
}

func TestDenseDistanceEncodingCheck(t *testing.T) {
	d := newTestDense(t, 0.5)
	if _, err := d.distance(vec.NewBitVec(10), vec.NewBitVec(2048)); !errors.Is(err, ErrBadEncoding) {
		t.Errorf("err = %v, want ErrBadEncoding", err)
	}
	if _, err := d.RawNormHamming(vec.NewBitVec(10), vec.NewBitVec(2048)); !errors.Is(err, ErrBadEncoding) {
		t.Errorf("raw err = %v, want ErrBadEncoding", err)
	}
}

// encodeAllWith is EncodeAll at a fixed width.
func encodeAllWith(workers int) func(d *Dense, ps [][]float64) ([]vec.BitVec, error) {
	return func(d *Dense, ps [][]float64) ([]vec.BitVec, error) { return d.EncodeAll(ps, workers) }
}

// entryPoint is one way into the Dense-DPE kernel, encoding a batch.
type entryPoint struct {
	name   string
	encode func(d *Dense, ps [][]float64) ([]vec.BitVec, error)
}

// entryPoints are the two ways into the Dense-DPE kernel; every property of
// the encoding must hold through both.
var entryPoints = []entryPoint{
	{"Encode", func(d *Dense, ps [][]float64) ([]vec.BitVec, error) {
		out := make([]vec.BitVec, len(ps))
		for i, p := range ps {
			e, err := d.Encode(p)
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	}},
	{"EncodeAll", encodeAllWith(1)},
}

// encodeWidths are the EncodeAll widths the bit-identity tests run at: the
// serial path, fewer workers than most batches, an odd count, and more
// workers than any batch holds.
var encodeWidths = []int{1, 2, 3, 8, 64}

// table2Case is one (key, threshold, entry point, seed) cell of the Table II
// property tests. Bounds are stated for t = 0.5 and scale with t/0.5.
type table2Case struct {
	d      *Dense
	encode func(d *Dense, ps [][]float64) ([]vec.BitVec, error)
	rng    *rand.Rand
	scale  float64
}

// forEachTable2Case runs fn over 8 keys derived from one master (every
// fourth at t = 0.25) x both entry points x 3 seeds.
func forEachTable2Case(t *testing.T, fn func(t *testing.T, c table2Case)) {
	for k := 0; k < 8; k++ {
		threshold := 0.5
		if k%4 == 3 {
			threshold = 0.25
		}
		key := crypto.DeriveKey(testKey(1), fmt.Sprintf("table2-%d", k))
		d, err := NewDense(key, DenseParams{InDim: 64, OutDim: 2048, Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range entryPoints {
			for seed := int64(42); seed < 45; seed++ {
				t.Run(fmt.Sprintf("key%d/t=%v/%s/seed%d", k, threshold, ep.name, seed), func(t *testing.T) {
					fn(t, table2Case{d: d, encode: ep.encode, rng: rand.New(rand.NewSource(seed)), scale: threshold / 0.5})
				})
			}
		}
	}
}

// meanDistance encodes trials random pairs at plaintext distance dp in one
// call and returns the mean encoded distance.
func (c table2Case) meanDistance(t *testing.T, dp float64, trials int) float64 {
	t.Helper()
	ps := make([][]float64, 0, 2*trials)
	for i := 0; i < trials; i++ {
		p1, p2 := randomPair(c.rng, c.d.inDim, dp)
		ps = append(ps, p1, p2)
	}
	es, err := c.encode(c.d, ps)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < len(es); i += 2 {
		de, err := c.d.distance(es[i], es[i+1])
		if err != nil {
			t.Fatal(err)
		}
		sum += de
	}
	return sum / float64(trials)
}

// TestDensePreservesSubThresholdDistances is the core Definition-1 property:
// for dp < t, DISTANCE(e1,e2) ~ dp.
func TestDensePreservesSubThresholdDistances(t *testing.T) {
	forEachTable2Case(t, func(t *testing.T, c table2Case) {
		for _, frac := range []float64{0.05, 0.1, 0.2, 0.3, 0.4} {
			dp := frac * c.scale
			if mean := c.meanDistance(t, dp, 20); math.Abs(mean-dp) > 0.05*c.scale+0.15*dp {
				t.Errorf("dp=%v: mean encoded distance %v, want ~%v", dp, mean, dp)
			}
		}
	})
}

// TestDenseSaturatesAboveThreshold: for dp >= t the encoded distance pins
// near t and conveys no ordering information about the true distance.
func TestDenseSaturatesAboveThreshold(t *testing.T) {
	forEachTable2Case(t, func(t *testing.T, c table2Case) {
		means := make(map[float64]float64)
		for _, dp := range []float64{0.7, 0.85, 1.0} {
			means[dp] = c.meanDistance(t, dp, 20)
			if m := means[dp]; m < 0.40*c.scale || m > 0.62*c.scale {
				t.Errorf("dp=%v: saturated distance %v, want near t=%v", dp, m, c.d.t)
			}
		}
		// Saturated values should be close to each other (no ordering leak).
		if math.Abs(means[0.7]-means[1.0]) > 0.06*c.scale {
			t.Errorf("saturation not flat: de(0.7)=%v de(1.0)=%v", means[0.7], means[1.0])
		}
	})
}

func TestDenseZeroDistance(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(44))
	p, _ := randomPair(rng, 64, 0)
	e, _ := d.Encode(p)
	de, err := d.distance(e, e)
	if err != nil {
		t.Fatal(err)
	}
	if de != 0 {
		t.Errorf("self distance = %v, want 0", de)
	}
}

// TestDenseMonotoneBelowThreshold: encoded distances must preserve ordering
// of plaintext distances in the sub-threshold regime.
func TestDenseMonotoneBelowThreshold(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(45))
	prev := -1.0
	for _, dp := range []float64{0.05, 0.15, 0.25, 0.35, 0.45} {
		var sum float64
		const trials = 30
		for i := 0; i < trials; i++ {
			p1, p2 := randomPair(rng, 64, dp)
			e1, _ := d.Encode(p1)
			e2, _ := d.Encode(p2)
			de, _ := d.distance(e1, e2)
			sum += de
		}
		mean := sum / trials
		if mean <= prev {
			t.Errorf("dp=%v: mean %v not greater than previous %v", dp, mean, prev)
		}
		prev = mean
	}
}

// TestDenseThresholdScaling checks the Definition-1 contract for a
// non-default threshold: distances below t track dp, above t pin near t.
func TestDenseThresholdScaling(t *testing.T) {
	d, err := NewDense(testKey(3), DenseParams{InDim: 32, OutDim: 2048, Threshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	sub := 0.15
	var sum float64
	const trials = 30
	for i := 0; i < trials; i++ {
		p1, p2 := randomPair(rng, 32, sub)
		e1, _ := d.Encode(p1)
		e2, _ := d.Encode(p2)
		de, _ := d.distance(e1, e2)
		sum += de
	}
	if mean := sum / trials; math.Abs(mean-sub) > 0.06 {
		t.Errorf("t=0.25 dp=%v: mean %v", sub, mean)
	}
	sum = 0
	for i := 0; i < trials; i++ {
		p1, p2 := randomPair(rng, 32, 0.8)
		e1, _ := d.Encode(p1)
		e2, _ := d.Encode(p2)
		de, _ := d.distance(e1, e2)
		sum += de
	}
	if mean := sum / trials; math.Abs(mean-0.25) > 0.06 {
		t.Errorf("t=0.25 dp=0.8: saturated mean %v, want ~0.25", mean)
	}
}

func TestSparseEncodeEquality(t *testing.T) {
	s := NewSparse(testKey(5))
	if s.Encode("cloud") != s.Encode("cloud") {
		t.Error("same keyword produced different tokens")
	}
	if s.Encode("cloud") == s.Encode("clouds") {
		t.Error("distinct keywords produced the same token")
	}
}

func TestSparseDistance(t *testing.T) {
	s := NewSparse(testKey(5))
	a, b := s.Encode("alpha"), s.Encode("alphb")
	if got := s.Distance(a, a); got != 0 {
		t.Errorf("Distance(a,a) = %v, want 0", got)
	}
	if got := s.Distance(a, b); got != 1 {
		t.Errorf("Distance(a,b) = %v, want 1 (one character apart must look maximal)", got)
	}
}

func TestSparseKeySeparation(t *testing.T) {
	s1, s2 := NewSparse(testKey(6)), NewSparse(testKey(7))
	if s1.Encode("word") == s2.Encode("word") {
		t.Error("tokens under different keys collide")
	}
}

func TestSparseInjectiveProperty(t *testing.T) {
	s := NewSparse(testKey(8))
	f := func(a, b string) bool {
		if a == b {
			return s.Distance(s.Encode(a), s.Encode(b)) == 0
		}
		return s.Distance(s.Encode(a), s.Encode(b)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenString(t *testing.T) {
	var tok Token
	tok[0] = 0xAB
	tok[31] = 0x01
	str := tok.String()
	if len(str) != 64 {
		t.Fatalf("token string length %d, want 64", len(str))
	}
	if str[:2] != "ab" || str[62:] != "01" {
		t.Errorf("token hex wrong: %s", str)
	}
}

func TestDenseEncodeDeterministicProperty(t *testing.T) {
	d := newTestDense(t, 0.5)
	f := func(raw [64]int8) bool {
		p := make([]float64, 64)
		for i, v := range raw {
			p[i] = float64(v) / 512 // stay in the unit-diameter domain
		}
		e1, err := d.Encode(p)
		if err != nil {
			return false
		}
		e2, err := d.Encode(p)
		if err != nil {
			return false
		}
		return sameBits(e1, e2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDenseDistanceSymmetricProperty(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		p1, p2 := randomPair(rng, 64, rng.Float64())
		e1, err := d.Encode(p1)
		if err != nil {
			return false
		}
		e2, err := d.Encode(p2)
		if err != nil {
			return false
		}
		d12, err1 := d.distance(e1, e2)
		d21, err2 := d.distance(e2, e1)
		self, err3 := d.distance(e1, e1)
		return err1 == nil && err2 == nil && err3 == nil && d12 == d21 && self == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// seededDescriptors returns n reproducible dim-component vectors at the
// scale of normalized media descriptors.
func seededDescriptors(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	descs := make([][]float64, n)
	for i := range descs {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 0.2
		}
		descs[i] = p
	}
	return descs
}

// refEncode is Encode as it stood before the blocked kernels — one dependent
// dot-product chain per output bit, bits set one at a time — but for the
// shared input check and 1/Δ, which NewDense now computes. It is the
// reference the kernels must match word for word.
func refEncode(d *Dense, p []float64) (vec.BitVec, error) {
	if err := d.check(p); err != nil {
		return vec.BitVec{}, err
	}
	e := vec.NewBitVec(d.outDim)
	for i := 0; i < d.outDim; i++ {
		row := d.a[i*d.inDim : (i+1)*d.inDim]
		var dot float64
		for j, x := range p {
			dot += float64(row[j] * x) // the conversion forbids a fused multiply-add
		}
		q := int64(math.Floor((dot + d.w[i]) * d.invDelta))
		// Q(.) quantizes [2v, 2v+1) -> 1 and [2v+1, 2v+2) -> 0: even floor -> 1.
		if q&1 == 0 {
			e.Set(i, true)
		}
	}
	return e, nil
}

// checkAgainstReference asserts that Encode and EncodeAll at every one of
// widths agree word for word with refEncode and set no bit past OutDim.
func checkAgainstReference(t *testing.T, d *Dense, descs [][]float64, widths ...int) {
	t.Helper()
	codes := map[string][]vec.BitVec{"Encode": make([]vec.BitVec, len(descs))}
	for i, p := range descs {
		e, err := d.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		codes["Encode"][i] = e
	}
	for _, w := range widths {
		all, err := d.EncodeAll(descs, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(descs) || (len(descs) == 0 && all != nil) {
			t.Fatalf("EncodeAll on %d workers returned %d encodings (nil=%v) for %d vectors", w, len(all), all == nil, len(descs))
		}
		codes[fmt.Sprintf("EncodeAll on %d workers", w)] = all
	}
	for i, p := range descs {
		want, err := refEncode(d, p)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range codes {
			if got[i].Len() != d.outDim || !reflect.DeepEqual(codeWords(got[i]), codeWords(want)) {
				t.Fatalf("vector %d of %d: %s differs from the reference\n got %x\nwant %x", i, len(descs), name, codeWords(got[i]), codeWords(want))
			}
			if r := d.outDim % 64; r != 0 {
				if last := codeWords(got[i])[d.outDim/64]; last>>uint(r) != 0 {
					t.Fatalf("vector %d: %s sets bits past OutDim=%d: %x", i, name, d.outDim, last)
				}
			}
		}
	}
}

func TestEncodeAllMatchesReference(t *testing.T) {
	for _, dim := range []struct{ in, out int }{{64, 2048}, {64, 512}, {32, 256}, {7, 70}, {64, 65}, {3, 3}} {
		d, err := NewDense(testKey(9), DenseParams{InDim: dim.in, OutDim: dim.out, Threshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 29} {
			t.Run(fmt.Sprintf("%dx%d/batch%d", dim.in, dim.out, n), func(t *testing.T) {
				checkAgainstReference(t, d, seededDescriptors(int64(n), n, dim.in), encodeWidths...)
			})
		}
		// At descriptor scale a different summation order moves a dot product
		// by an ulp and flips a bit once in 10^15; with components near 10^14
		// the rounding error is of the order of the quantization step, so a
		// kernel that sums in any order but the reference's fails here.
		t.Run(fmt.Sprintf("%dx%d/ill-conditioned", dim.in, dim.out), func(t *testing.T) {
			descs := seededDescriptors(77, 9, dim.in)
			for _, p := range descs {
				vec.Scale(p, 5e14)
			}
			checkAgainstReference(t, d, descs, encodeWidths...)
		})
	}
}

// TestDenseCodesPinnedAcrossCommits guards the encodings against the one
// change no same-commit reference can see: a drift in key expansion or
// quantization that moves kernel and reference together. The digest was
// computed with the single-chain Encode of commit 28ac091, before the blocked
// kernel existed; codes stored by any earlier client stay searchable only as
// long as it holds. The vectors are at descriptor scale on purpose: there a
// last-place difference in A (key expansion goes through math.Log, Sin and
// Cos, which Go does not promise to round alike on every architecture) moves
// no bit, so the digest holds wherever the tests run. Summation order is the
// ill-conditioned cases' job in TestEncodeAllMatchesReference.
func TestDenseCodesPinnedAcrossCommits(t *testing.T) {
	const want = "551fb1766c58b355e6e53c0429feb346a7875d9d7427f81cc6ba937d245c64f6"
	d, err := NewDense(testKey(0x5a), DenseParams{InDim: 64, OutDim: 2048, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	descs := seededDescriptors(2017, 200, 64)
	for _, ep := range append(entryPoints, entryPoint{"EncodeAll/8 workers", encodeAllWith(8)}) {
		es, err := ep.encode(d, descs)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, e := range es {
			for _, w := range codeWords(e) {
				binary.BigEndian.PutUint64(buf[:], w)
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: digest of 200 pinned codes = %s, want %s", ep.name, got, want)
		}
	}
}

func TestDenseRejectsBadVectors(t *testing.T) {
	d := newTestDense(t, 0.5)
	good := seededDescriptors(3, 6, 64)
	with := func(i int, p []float64) [][]float64 {
		out := append([][]float64(nil), good...)
		out[i] = p
		return out
	}
	poisoned := func(v float64) []float64 {
		p := vec.Clone(good[0])
		p[63] = v
		return p
	}
	for _, tt := range []struct {
		name string
		p    []float64
		want error
	}{
		{"short", make([]float64, 63), ErrBadDimension},
		{"long", make([]float64, 65), ErrBadDimension},
		{"nil", nil, ErrBadDimension},
		{"NaN", poisoned(math.NaN()), ErrNonFinite},
		{"+Inf", poisoned(math.Inf(1)), ErrNonFinite},
		{"-Inf", poisoned(math.Inf(-1)), ErrNonFinite},
		{"finite, past int64 once quantized", poisoned(1e30), ErrNonFinite},
		{"just past the bound", poisoned(-math.Nextafter(d.maxAbs, math.Inf(1))), ErrNonFinite},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := d.Encode(tt.p); !errors.Is(err, tt.want) {
				t.Errorf("Encode: err = %v, want %v", err, tt.want)
			}
			// First, last and mid-block positions: the check covers every
			// vector before any is encoded.
			for _, i := range []int{0, 2, 5} {
				es, err := d.EncodeAll(with(i, tt.p), 4)
				if !errors.Is(err, tt.want) || es != nil {
					t.Errorf("EncodeAll with bad vector %d: %v, err = %v, want nil, %v", i, es, err, tt.want)
				}
				if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("descriptor %d:", i)) {
					t.Errorf("EncodeAll error %q does not name descriptor %d", err, i)
				}
			}
		})
	}
}

// TestDenseBoundKeepsQuantizerInRange: the worst vector check admits — every
// component at the bound, signed like the row it meets — still quantizes
// inside int64, for every row, at thresholds from tiny to 1.
func TestDenseBoundKeepsQuantizerInRange(t *testing.T) {
	for _, threshold := range []float64{1e-9, 0.25, 0.5, 1} {
		for _, dim := range []struct{ in, out int }{{64, 2048}, {7, 70}, {1, 5}} {
			d, err := NewDense(testKey(6), DenseParams{InDim: dim.in, OutDim: dim.out, Threshold: threshold})
			if err != nil {
				t.Fatal(err)
			}
			p := make([]float64, dim.in)
			for i := 0; i < dim.out; i++ {
				row := d.a[i*dim.in:][:dim.in]
				for j, a := range row {
					p[j] = math.Copysign(d.maxAbs, a)
				}
				if err := d.check(p); err != nil {
					t.Fatalf("t=%v %dx%d: vector at the bound refused: %v", threshold, dim.in, dim.out, err)
				}
				var dot float64
				for j, x := range p {
					dot += float64(row[j] * x)
				}
				if v := (dot + d.w[i]) * d.invDelta; !(math.Abs(v) < math.Ldexp(1, 63)) {
					t.Fatalf("t=%v %dx%d row %d: quantizer input %v leaves int64", threshold, dim.in, dim.out, i, v)
				}
			}
		}
	}
}

// FuzzDenseEncodeAll decodes dimensions, batch size, vector components and
// EncodeAll's width from bytes: admissible batches must match refEncode
// through both entry points, and a batch with any NaN, infinity or
// out-of-range component must be refused by all three.
func FuzzDenseEncodeAll(f *testing.F) {
	f.Add([]byte{63, 255, 7, 5, 0x12, 0x34, 0xfe, 0xdc, 0x00, 0x01})
	f.Add([]byte{2, 2, 0, 3})
	f.Add([]byte{6, 69, 0, 9, 0x7f, 0xff, 0x10, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		inDim := 1 + int(data[0])%64
		outDim := 1 + (int(data[1])|int(data[2])<<8)%320
		n := int(data[3]) % 13
		// The width comes from the last byte, so the components' bytes are
		// what they were before the width was drawn.
		workers := 1 + int(data[len(data)-1])%16
		// 2^0 … 2^48: from descriptor scale up to components whose rounding
		// error is of the order of the quantization step, where the order of
		// summation shows in the bits.
		scale := math.Ldexp(1, 3*(int(data[3])/13%17))
		d, err := NewDense(testKey(4), DenseParams{InDim: inDim, OutDim: outDim, Threshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		// Components are big-endian int16 pairs scaled into [-4, 4)·scale,
		// the four extreme codes standing for NaN, +Inf, -Inf and a finite
		// value too large to quantize; the bytes are reused cyclically when
		// they run out.
		vals := data[4:]
		next := func(k int) float64 {
			if len(vals) < 2 {
				return 0
			}
			k = 2 * k % (len(vals) - 1)
			switch c := int16(binary.BigEndian.Uint16(vals[k:])); c {
			case math.MaxInt16:
				return math.NaN()
			case math.MaxInt16 - 1:
				return math.Inf(1)
			case math.MinInt16:
				return math.Inf(-1)
			case math.MinInt16 + 1:
				return -1e300
			default:
				return float64(c) / 8192 * scale
			}
		}
		descs := make([][]float64, n)
		anyBad := false
		for i := range descs {
			descs[i] = make([]float64, inDim)
			bad := false
			for j := range descs[i] {
				x := next(i*inDim + j)
				descs[i][j] = x
				bad = bad || x != x || x-x != 0 || x > d.maxAbs || x < -d.maxAbs // NaN, an infinity, out of range
			}
			_, errOne := d.Encode(descs[i])
			_, errRef := refEncode(d, descs[i])
			if errors.Is(errOne, ErrNonFinite) != bad || errors.Is(errRef, ErrNonFinite) != bad {
				t.Fatalf("vector %d (inadmissible: %v): Encode err = %v, refEncode err = %v", i, bad, errOne, errRef)
			}
			anyBad = anyBad || bad
		}
		if !anyBad {
			checkAgainstReference(t, d, descs, workers)
		} else if es, err := d.EncodeAll(descs, workers); !errors.Is(err, ErrNonFinite) || es != nil {
			t.Fatalf("EncodeAll on a batch with an inadmissible vector: %v, err = %v", es, err)
		}
	})
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

// sameBits reports whether a and b have the same length and bits.
func sameBits(a, b vec.BitVec) bool { return a.Len() == b.Len() && vec.Hamming(a, b) == 0 }

// distance runs Dense-DPE DISTANCE on two encodings. It returns a value that
// approximates the plaintext Euclidean distance when that distance is below
// the threshold, and a value pinned near the threshold otherwise.
func (d *Dense) distance(e1, e2 vec.BitVec) (float64, error) {
	if e1.Len() != d.outDim || e2.Len() != d.outDim {
		return 0, fmt.Errorf("%w: got %d and %d, want %d", ErrBadEncoding, e1.Len(), e2.Len(), d.outDim)
	}
	return vec.NormHamming(e1, e2) * 2 * d.t, nil
}
