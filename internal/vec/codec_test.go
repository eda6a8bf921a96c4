package vec

import (
	"errors"
	"math/rand"
	"testing"

	"mie/internal/bin"
)

func randomBitVec(r *rand.Rand, n int) BitVec {
	v := NewBitVec(n)
	for i := 0; i < n; i++ {
		v.Set(i, r.Intn(2) == 1)
	}
	return v
}

func TestBitVecsBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var vs []BitVec
	for _, n := range []int{0, 1, 63, 64, 65, 130, 2048, 0, 2048} {
		vs = append(vs, randomBitVec(r, n))
	}
	enc := AppendBitVecs(nil, vs)
	if n := BitVecsLen(vs); n != len(enc) || BitVecsLen(nil) != len(AppendBitVecs(nil, nil)) {
		t.Fatalf("BitVecsLen = %d, the encoding has %d bytes", n, len(enc))
	}
	c := bin.NewCursor(enc)
	got := ConsumeBitVecs(c)
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vs) {
		t.Fatalf("decoded %d vectors, want %d", len(got), len(vs))
	}
	for i := range vs {
		if !got[i].Equal(vs[i]) {
			t.Errorf("vector %d (%d bits) changed in transit", i, vs[i].Len())
		}
	}
	// The decoded vectors own their words: the input may be reused.
	for i := range enc {
		enc[i] = 0xff
	}
	for i := range vs {
		if !got[i].Equal(vs[i]) {
			t.Errorf("vector %d aliases the decoder's input", i)
		}
	}
	// One arena for the list, carved without overlap: writing one vector
	// must not reach its neighbour.
	got[5].Set(129, !got[5].Get(129))
	if !got[4].Equal(vs[4]) || !got[6].Equal(vs[6]) {
		t.Error("vectors of one list share words")
	}

	c = bin.NewCursor(AppendBitVecs(nil, nil))
	if got := ConsumeBitVecs(c); got != nil || c.Done() != nil {
		t.Errorf("empty list decoded to %v, err %v", got, c.Err())
	}
	if allocs := testing.AllocsPerRun(50, func() { ConsumeBitVecs(bin.NewCursor(AppendBitVecs(enc[:0], vs))) }); allocs > 4 {
		t.Errorf("decoding %d vectors takes %.0f allocations, want one arena", len(vs), allocs)
	}
}

func TestBitVecsBinaryRejectsHostileInput(t *testing.T) {
	one := AppendBitVecs(nil, []BitVec{NewBitVec(70)})
	stray := append([]byte(nil), one...)
	stray[len(stray)-8] = 0x80 // bit 127 of a 70-bit vector
	cases := map[string][]byte{
		"count past the end":      bin.AppendUvarint(nil, 1<<40),
		"bit length past the end": bin.AppendUvarint(bin.AppendUvarint(nil, 1), 1<<50),
		"words cut short":         one[:len(one)-1],
		"bits beyond the length":  stray,
	}
	for name, in := range cases {
		c := bin.NewCursor(in)
		if got := ConsumeBitVecs(c); got != nil || !errors.Is(c.Err(), bin.ErrCorrupt) {
			t.Errorf("%s: decoded %v, err %v", name, got, c.Err())
		}
	}
}
