package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"mie/internal/bin"
	"mie/internal/dpe"
	"mie/internal/vec"
)

func codecUpdate() *Update {
	code := vec.NewBitVec(130)
	code.Set(3, true)
	code.Set(129, true)
	return &Update{
		ObjectID:       "obj-é",
		Owner:          "alice",
		Ciphertext:     []byte("ciphertext bytes"),
		TextTokens:     map[dpe.Token]uint64{{9}: 1, {1}: 1 << 63, {5, 5}: 7},
		ImageEncodings: []vec.BitVec{code, vec.NewBitVec(130)},
		AudioEncodings: []vec.BitVec{vec.NewBitVec(0)},
	}
}

func TestUpdateBinaryRoundTrip(t *testing.T) {
	want := codecUpdate()
	enc := want.AppendTo(nil)
	if got := want.EncodedSize(); got != len(enc) {
		t.Fatalf("EncodedSize = %d, the encoding has %d bytes", got, len(enc))
	}
	if got := new(Update).EncodedSize(); got != len(new(Update).AppendTo(nil)) {
		t.Fatalf("EncodedSize of the zero update = %d, the encoding has %d bytes", got, len(new(Update).AppendTo(nil)))
	}
	for i := 0; i < 20; i++ { // map iteration order must not reach the bytes
		if again := want.AppendTo(nil); !bytes.Equal(enc, again) {
			t.Fatal("one update encoded to two different byte strings")
		}
	}
	var got Update
	c := bin.NewCursor(enc)
	got.ConsumeFrom(c)
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip changed the update\n got %+v\nwant %+v", got, want)
	}
	// The engine keeps an update for the object's lifetime: nothing in it
	// may point into the buffer it was decoded from.
	for i := range enc {
		enc[i] = 0xff
	}
	if !reflect.DeepEqual(&got, want) {
		t.Error("decoded update aliases the decoder's input")
	}
	if cap(got.Ciphertext) != len(got.Ciphertext) {
		t.Errorf("ciphertext copy has cap %d for len %d", cap(got.Ciphertext), len(got.Ciphertext))
	}
}

func TestQueryBinaryRoundTrip(t *testing.T) {
	u := codecUpdate()
	for _, k := range []int{0, 10, -3, math.MaxInt64} {
		want := &Query{TextTokens: SortedTokens(u.TextTokens), ImageEncodings: u.ImageEncodings, K: k}
		var got Query
		c := bin.NewCursor(want.AppendTo(nil))
		got.ConsumeFrom(c)
		if err := c.Done(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("K=%d: round trip changed the query\n got %+v\nwant %+v", k, got, want)
		}
	}
}

func TestSearchHitBinaryRoundTrip(t *testing.T) {
	for _, score := range []float64{0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000123), 0.1} {
		want := SearchHit{ObjectID: "o", Owner: "w", Score: score, Ciphertext: []byte("ct")}
		enc := want.AppendTo(nil)
		var got SearchHit
		c := bin.NewCursor(enc)
		got.ConsumeFrom(c)
		if err := c.Done(); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Score) != math.Float64bits(score) {
			t.Errorf("score bits %#x became %#x", math.Float64bits(score), math.Float64bits(got.Score))
		}
		if got.ObjectID != "o" || got.Owner != "w" || string(got.Ciphertext) != "ct" {
			t.Errorf("hit changed in transit: %+v", got)
		}
		// A hit is consumed and dropped by its receiver, so its ciphertext is
		// a window into the input rather than a copy.
		enc[len(enc)-1] = 'T'
		if string(got.Ciphertext) != "cT" {
			t.Error("hit ciphertext was copied out of the input")
		}
	}
}

func TestTokensMustArriveSorted(t *testing.T) {
	u := &Update{ObjectID: "o", TextTokens: map[dpe.Token]uint64{{1}: 1, {2}: 2}}
	enc := u.AppendTo(nil)
	const (
		first  = 2 + 1 + 1 + 1 // after id, owner, ciphertext and the count
		entry  = 32 + 1        // token, one-byte frequency
		second = first + entry
	)
	swapped := append([]byte(nil), enc...)
	copy(swapped[first:], enc[second:second+entry])
	copy(swapped[second:], enc[first:first+entry])
	duplicate := append([]byte(nil), enc...)
	copy(duplicate[second:second+32], enc[first:])
	for name, in := range map[string][]byte{"out of order": swapped, "duplicate": duplicate} {
		var got Update
		c := bin.NewCursor(in)
		got.ConsumeFrom(c)
		if err := c.Done(); !errors.Is(err, bin.ErrCorrupt) {
			t.Errorf("%s tokens: err = %v, want ErrCorrupt", name, err)
		}
	}
}
