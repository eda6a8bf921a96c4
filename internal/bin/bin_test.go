package bin

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, math.MinInt64)
	b = AppendVarint(b, -1)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<63)
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendBool(b, true)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = AppendString(b, "héllo")

	c := NewCursor(b)
	if v := c.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d", v)
	}
	if v := c.Uvarint(); v != math.MaxUint64 {
		t.Errorf("uvarint = %d", v)
	}
	if v := c.Varint(); v != math.MinInt64 {
		t.Errorf("varint = %d", v)
	}
	if v := c.Int(); v != -1 {
		t.Errorf("int = %d", v)
	}
	if v := c.U32(); v != 0xdeadbeef {
		t.Errorf("u32 = %#x", v)
	}
	if v := c.U64(); v != 1<<63 {
		t.Errorf("u64 = %#x", v)
	}
	if v := c.F64(); math.Float64bits(v) != 1<<63 {
		t.Errorf("f64 bits = %#x, want negative zero", math.Float64bits(v))
	}
	if !c.Bool() {
		t.Error("bool = false")
	}
	if v := c.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) || cap(v) != 3 {
		t.Errorf("bytes = %v cap %d", v, cap(v))
	}
	if v := c.BytesCopy(); v != nil {
		t.Errorf("empty run = %v, want nil", v)
	}
	if v := c.String(); v != "héllo" {
		t.Errorf("string = %q", v)
	}
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAliasesAndCopyDoesNot(t *testing.T) {
	in := AppendBytes(AppendBytes(nil, []byte("abc")), []byte("def"))
	c := NewCursor(in)
	alias, copied := c.Bytes(), c.BytesCopy()
	for i := range in {
		in[i] = 0xff
	}
	if string(alias) != "\xff\xff\xff" {
		t.Errorf("Bytes did not alias the input: %q", alias)
	}
	if string(copied) != "def" || cap(copied) != 3 {
		t.Errorf("BytesCopy = %q cap %d, want an exact-size copy", copied, cap(copied))
	}
}

func TestHostileInput(t *testing.T) {
	huge := AppendUvarint(nil, 1<<40)
	cases := map[string]func(c *Cursor){
		"length past the end":   func(c *Cursor) { c.Bytes() },
		"count past the end":    func(c *Cursor) { c.Count(8) },
		"string past the end":   func(c *Cursor) { _ = c.String() },
		"fixed width past end":  func(c *Cursor) { c.U64() },
		"take negative":         func(c *Cursor) { c.Take(-1) },
		"caller-reported value": func(c *Cursor) { c.Fail("out of domain") },
	}
	for name, read := range cases {
		c := NewCursor(huge)
		read(c)
		if !errors.Is(c.Err(), ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, c.Err())
		}
		// The error is sticky: later reads yield zero values, Done keeps it.
		first := c.Err()
		if c.Uvarint() != 0 || c.Bytes() != nil || c.Remaining() != 0 || c.Done() != first {
			t.Errorf("%s: reads after a failure are not inert", name)
		}
	}
	for name, in := range map[string][]byte{
		"over-long varint": {0x80, 0x00},
		"unterminated":     {0xff, 0xff},
		"11-byte varint":   bytes.Repeat([]byte{0xff}, 11),
		"bool byte 2":      {2},
		"empty":            {},
	} {
		c := NewCursor(in)
		if name == "bool byte 2" {
			c.Bool()
		} else {
			c.Uvarint()
		}
		if !errors.Is(c.Err(), ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, c.Err())
		}
	}
	if v := NewCursor(AppendVarint(nil, math.MinInt64)).Int(); v != math.MinInt64 {
		t.Errorf("Int = %d", v)
	}
	c := NewCursor([]byte{0, 1})
	c.Uvarint()
	if err := c.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: Done = %v, want ErrCorrupt", err)
	}
}

func TestLensMatchTheEncoders(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		if got, want := UvarintLen(v), len(AppendUvarint(nil, v)); got != want {
			t.Errorf("UvarintLen(%d) = %d, AppendUvarint writes %d", v, got, want)
		}
	}
	for _, n := range []int{0, 1, 127, 128, 20000} {
		if got, want := BytesLen(n), len(AppendBytes(nil, make([]byte, n))); got != want {
			t.Errorf("BytesLen(%d) = %d, AppendBytes writes %d", n, got, want)
		}
	}
}
