// Package bin is the byte-level vocabulary of the binary wire bodies: a
// handful of append helpers for the writing side and one consuming Cursor
// with a sticky error for the reading side. Fixed-width integers are
// big-endian, lengths and counts are uvarints, signed integers are zigzag
// varints, and byte runs are length-prefixed.
//
// The Cursor exists so that a body decoder is a straight run of field reads
// with one error check at the end, and so that the rules hostile input must
// not break are written once:
//
//   - every length or count is checked against the bytes remaining before
//     anything is allocated for it;
//   - after the first failure every read returns a zero value and the first
//     error is kept;
//   - bytes left over after the last field are an error (Done), and so is
//     any field not in its one canonical form (an over-long varint, a bool
//     byte other than 0 or 1), so decoding then encoding reproduces the
//     input.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrCorrupt is wrapped by every Cursor failure.
var ErrCorrupt = errors.New("bin: corrupt encoding")

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// UvarintLen returns the number of bytes AppendUvarint(nil, v) writes.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// BytesLen returns the number of bytes AppendBytes or AppendString writes
// for a run of n bytes.
func BytesLen(n int) int { return UvarintLen(uint64(n)) + n }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendU32 appends v as four big-endian bytes.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends v as eight big-endian bytes.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendF64 appends the IEEE-754 bit pattern of f, so NaN payloads, signed
// zeros and infinities survive unchanged.
func AppendF64(b []byte, f float64) []byte { return AppendU64(b, math.Float64bits(f)) }

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a length-prefixed byte run.
func AppendBytes(b, p []byte) []byte {
	return append(AppendUvarint(b, uint64(len(p))), p...)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	return append(AppendUvarint(b, uint64(len(s))), s...)
}

// Cursor consumes an encoding front to back.
type Cursor struct {
	buf []byte
	err error
}

// NewCursor returns a cursor over b. The cursor never writes to b; Bytes
// returns sub-slices of it.
func NewCursor(b []byte) *Cursor { return &Cursor{buf: b} }

// Err returns the first failure, if any.
func (c *Cursor) Err() error { return c.err }

// Remaining is the number of bytes not yet consumed.
func (c *Cursor) Remaining() int { return len(c.buf) }

// Fail records a decoding failure found by the caller (a value out of its
// domain); the first failure wins.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
		c.buf = nil
	}
}

// Done reports the first failure, or an error if bytes remain.
func (c *Cursor) Done() error {
	if c.err == nil && len(c.buf) != 0 {
		c.Fail("%d trailing bytes", len(c.buf))
	}
	return c.err
}

// Take consumes exactly n bytes and returns them as a sub-slice of the
// input (capacity clipped, so an append cannot reach the bytes after it).
func (c *Cursor) Take(n int) []byte {
	if n < 0 || n > len(c.buf) {
		c.Fail("need %d bytes, %d remain", n, len(c.buf))
		return nil
	}
	p := c.buf[:n:n]
	c.buf = c.buf[n:]
	return p
}

// Uvarint consumes an unsigned varint. Only the shortest encoding of a
// value is accepted, so a value has one encoding.
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.buf)
	if n <= 0 || (n > 1 && c.buf[n-1] == 0) {
		c.Fail("bad varint")
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// Varint consumes a zigzag varint.
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int consumes a zigzag varint that must fit an int.
func (c *Cursor) Int() int {
	v := c.Varint()
	if int64(int(v)) != v {
		c.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count consumes an element count and checks that count elements of at
// least elemMin bytes each can still follow, so the caller may allocate
// for them. elemMin must be at least 1.
func (c *Cursor) Count(elemMin int) int {
	n := c.Uvarint()
	if n > uint64(len(c.buf)/elemMin) {
		c.Fail("count %d exceeds the %d bytes remaining", n, len(c.buf))
		return 0
	}
	return int(n)
}

// U32 consumes four big-endian bytes.
func (c *Cursor) U32() uint32 {
	if p := c.Take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// U64 consumes eight big-endian bytes.
func (c *Cursor) U64() uint64 {
	if p := c.Take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// F64 consumes an IEEE-754 bit pattern.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Bool consumes one byte that must be 0 or 1.
func (c *Cursor) Bool() bool {
	p := c.Take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		c.Fail("bool byte %#x", p[0])
		return false
	}
	return p[0] == 1
}

// Bytes consumes a length-prefixed byte run and returns it as a sub-slice
// of the input: nil when empty, valid only as long as the input is.
func (c *Cursor) Bytes() []byte {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	return c.Take(n)
}

// BytesCopy is Bytes into a fresh exact-size slice, for values that outlive
// the input buffer.
func (c *Cursor) BytesCopy() []byte {
	p := c.Bytes()
	if p == nil {
		return nil
	}
	return append(make([]byte, 0, len(p)), p...)
}

// String consumes a length-prefixed string (always a copy).
func (c *Cursor) String() string { return string(c.Bytes()) }
