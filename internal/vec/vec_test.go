package vec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEuclidean(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{name: "zero", a: []float64{0, 0}, b: []float64{0, 0}, want: 0},
		{name: "unit axis", a: []float64{0, 0}, b: []float64{1, 0}, want: 1},
		{name: "pythagorean", a: []float64{0, 0}, b: []float64{3, 4}, want: 5},
		{name: "negative", a: []float64{-1, -1}, b: []float64{1, 1}, want: 2 * math.Sqrt2},
		{name: "empty", a: nil, b: nil, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Euclidean(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Euclidean(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestEuclideanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Euclidean([]float64{1}, []float64{1, 2})
}

func TestSquaredEuclideanMatchesEuclidean(t *testing.T) {
	f := func(a, b [8]int16) bool {
		av, bv := make([]float64, 8), make([]float64, 8)
		for i := range a {
			av[i] = float64(a[i]) / 100
			bv[i] = float64(b[i]) / 100
		}
		d := Euclidean(av, bv)
		s := SquaredEuclidean(av, bv)
		return math.Abs(d*d-s) < 1e-6*(1+s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotAndNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 4}
	Normalize(v)
	if math.Abs(Norm(v)-1) > 1e-12 {
		t.Errorf("norm after Normalize = %v, want 1", Norm(v))
	}
	z := []float64{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("zero vector changed: %v", z)
	}
}

func TestAddClone(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	Add(a, []float64{10, 20})
	if a[0] != 11 || a[1] != 22 {
		t.Errorf("Add result %v", a)
	}
	if c[0] != 1 || c[1] != 2 {
		t.Errorf("Clone aliased original: %v", c)
	}
}

func TestBitVecSetGet(t *testing.T) {
	b := NewBitVec(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i, true)
		if !b.get(i) {
			t.Errorf("bit %d not set", i)
		}
		b.Set(i, false)
		if b.get(i) {
			t.Errorf("bit %d not cleared", i)
		}
	}
}

func TestBitVecOutOfRange(t *testing.T) {
	b := NewBitVec(8)
	for _, i := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for index %d", i)
				}
			}()
			b.get(i)
		}()
	}
}

func TestBitVecSetWord(t *testing.T) {
	b := NewBitVec(70)
	b.SetWord(0, 1<<63|1)
	b.SetWord(1, ^uint64(0)) // only bits 64..69 exist
	for i := 0; i < 70; i++ {
		if want := i == 0 || i >= 63; b.get(i) != want {
			t.Errorf("bit %d = %v, want %v", i, b.get(i), want)
		}
	}
	if b.words[1] != 0x3f {
		t.Errorf("last word = %#x, want 0x3f: bits past Len must stay zero", b.words[1])
	}
	b.SetWord(1, 0)
	if b.onesCount() != 2 {
		t.Errorf("OnesCount after clearing word 1 = %d, want 2", b.onesCount())
	}
	full := NewBitVec(128)
	full.SetWord(1, ^uint64(0))
	if full.onesCount() != 64 {
		t.Errorf("a full last word lost bits: OnesCount = %d", full.onesCount())
	}
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for word %d", i)
				}
			}()
			b.SetWord(i, 1)
		}()
	}
}

func TestHamming(t *testing.T) {
	a := NewBitVec(100)
	b := NewBitVec(100)
	if Hamming(a, b) != 0 {
		t.Error("identical vectors should have distance 0")
	}
	for i := 0; i < 100; i += 2 {
		a.Set(i, true)
	}
	if got := Hamming(a, b); got != 50 {
		t.Errorf("Hamming = %d, want 50", got)
	}
	if got := NormHamming(a, b); got != 0.5 {
		t.Errorf("NormHamming = %v, want 0.5", got)
	}
}

func TestBitVecRoundTripWords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 200} {
		b := NewBitVec(n)
		for i := 0; i < n; i++ {
			b.Set(i, rng.Intn(2) == 1)
		}
		r, err := BitVecFromWords(b.words, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !r.equal(b) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestBitVecFromWordsValidation(t *testing.T) {
	if _, err := BitVecFromWords([]uint64{1, 2}, 64); err == nil {
		t.Error("expected error for wrong word count")
	}
	// Trailing garbage bits must be masked.
	bv, err := BitVecFromWords([]uint64{^uint64(0)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bv.onesCount() != 4 {
		t.Errorf("OnesCount = %d, want 4 (trailing bits masked)", bv.onesCount())
	}
}

func TestHammingSymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewBitVec(96), NewBitVec(96)
		for i := 0; i < 96; i++ {
			a.Set(i, rng.Intn(2) == 1)
			b.Set(i, rng.Intn(2) == 1)
		}
		return Hamming(a, b) == Hamming(b, a) && Hamming(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitVecClone(t *testing.T) {
	a := NewBitVec(10)
	a.Set(3, true)
	c := a.Clone()
	c.Set(3, false)
	if !a.get(3) {
		t.Error("Clone aliased original storage")
	}
}

func TestBitVecGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 64, 65, 200} {
		b := NewBitVec(n)
		for i := 0; i < n; i++ {
			b.Set(i, rng.Intn(2) == 1)
		}
		data, err := b.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var r BitVec
		if err := r.GobDecode(data); err != nil {
			t.Fatal(err)
		}
		if !r.equal(b) {
			t.Errorf("n=%d: gob round trip mismatch", n)
		}
	}
}

func TestBitVecGobDecodeValidation(t *testing.T) {
	var b BitVec
	if err := b.GobDecode([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for short data")
	}
	// length says 64 bits but only header present
	data := make([]byte, 8)
	data[7] = 64
	if err := b.GobDecode(data); err == nil {
		t.Error("expected error for missing words")
	}
}

func TestScale(t *testing.T) {
	v := []float64{1, -2, 3}
	Scale(v, 2)
	if v[0] != 2 || v[1] != -4 || v[2] != 6 {
		t.Errorf("Scale result %v", v)
	}
}

func TestOnesCount(t *testing.T) {
	b := NewBitVec(70)
	for _, i := range []int{0, 63, 64, 69} {
		b.Set(i, true)
	}
	if got := b.onesCount(); got != 4 {
		t.Errorf("OnesCount = %d, want 4", got)
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if NewBitVec(10).equal(NewBitVec(11)) {
		t.Error("different lengths reported equal")
	}
}

func TestHammingWords(t *testing.T) {
	a := []uint64{0xFFFF, 0, 1}
	b := []uint64{0x0FFF, 0, 0}
	if got := HammingWords(a, b); got != 5 {
		t.Errorf("HammingWords = %d, want 5", got)
	}
	if got := HammingWords(nil, nil); got != 0 {
		t.Errorf("HammingWords(nil, nil) = %d, want 0", got)
	}
	if got := HammingWords(a, a); got != 0 {
		t.Errorf("HammingWords(a, a) = %d, want 0", got)
	}
}

func TestHammingWordsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched word counts")
		}
	}()
	HammingWords([]uint64{1, 2}, []uint64{1})
}

// TestBitVotesMatchesCounts holds the bit-sliced counter to plain per-bit
// counts: every group filled to a vote count at and around the powers of two
// its planes turn over at, up to the capacity, and the majority (ties to the
// destination's own bits) checked bit by bit, tail bits staying zero.
func TestBitVotesMatchesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 63, 64, 65, 130} {
		fills := []int{0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17}
		maxVotes := fills[len(fills)-1]
		v := NewBitVotes(len(fills), n, maxVotes)
		for round := 0; round < 3; round++ {
			v.Reset()
			ones := make([][]int, len(fills))
			for g, fill := range fills {
				ones[g] = make([]int, n)
				// A few values only, so exact half-splits are common.
				pool := []BitVec{NewBitVec(n), NewBitVec(n), NewBitVec(n)}
				for i := 0; i < n; i++ {
					pool[1].Set(i, rng.Intn(2) == 1)
					pool[2].Set(i, true)
				}
				for j := 0; j < fill; j++ {
					b := pool[rng.Intn(len(pool))]
					v.Add(g, b)
					for i := 0; i < n; i++ {
						if b.get(i) {
							ones[g][i]++
						}
					}
				}
			}
			for g, fill := range fills {
				if v.Count(g) != fill {
					t.Fatalf("n=%d group %d: Count = %d, want %d", n, g, v.Count(g), fill)
				}
				dst, prior := NewBitVec(n), NewBitVec(n)
				for i := 0; i < n; i++ {
					bit := rng.Intn(2) == 1
					dst.Set(i, bit)
					prior.Set(i, bit)
				}
				changed := v.Majority(g, dst)
				for i := 0; i < n; i++ {
					want := 2*ones[g][i] > fill || 2*ones[g][i] == fill && prior.get(i)
					if dst.get(i) != want {
						t.Fatalf("n=%d fill %d bit %d: majority %v, want %v (%d ones)", n, fill, i, dst.get(i), want, ones[g][i])
					}
				}
				if d := Hamming(dst, prior); changed != d {
					t.Errorf("n=%d fill %d: Majority reported %d changed bits, want %d", n, fill, changed, d)
				}
				if w := dst.words; n%64 != 0 && w[len(w)-1]>>(n%64) != 0 {
					t.Errorf("n=%d fill %d: bits set past the length", n, fill)
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d: adding past maxVotes did not panic", n)
				}
			}()
			v.Add(len(fills)-1, NewBitVec(n))
		}()
	}
}

// TestHammingWordsTailMasking pins the division of labor around tail bits:
// BitVecFromWords masks bits beyond the logical length, so HammingWords over
// Words() of two vectors that differ only in (pre-mask) tail garbage reports
// zero, and always agrees with Hamming.
func TestHammingWordsTailMasking(t *testing.T) {
	// 70 bits -> 2 words; bits 70..63 of the second word are tail garbage
	// that BitVecFromWords masks away. The live low 6 bits (0x2A) agree.
	a, err := BitVecFromWords([]uint64{42, 0xFFFFFFFFFFFFFF2A}, 70)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BitVecFromWords([]uint64{42, 0xDEADBEEF0000002A}, 70)
	if err != nil {
		t.Fatal(err)
	}
	if got := HammingWords(a.words, b.words); got != 0 {
		t.Errorf("tail garbage leaked into distance: %d != 0", got)
	}
	b.Set(69, false)
	b.Set(0, true)
	want := Hamming(a, b)
	if got := HammingWords(a.words, b.words); got != want || want != 2 {
		t.Errorf("HammingWords = %d, Hamming = %d, want 2", got, want)
	}
}

// get reports bit i.
func (b BitVec) get(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("vec: BitVec.Get index %d out of range [0,%d)", i, b.n))
	}
	return b.words[i/64]&(1<<uint(i%64)) != 0
}

// onesCount returns the number of set bits.
func (b BitVec) onesCount() int {
	var c int
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// equal reports whether a and b have the same length and bits.
func (b BitVec) equal(o BitVec) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}
