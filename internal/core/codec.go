package core

import (
	"bytes"
	"slices"

	"mie/internal/bin"
	"mie/internal/dpe"
	"mie/internal/vec"
)

// Binary forms of the values that cross the network: Update, Query and
// SearchHit. They live here, below the transport, so the wire protocol, the
// write-ahead log and the replication stream carry the same bytes: a WAL
// record is a kind byte plus Update.AppendTo (durable.go). Every value has
// exactly one encoding — text tokens are one list in strictly ascending
// token order, the order Query.TextTokens is held in and Update's map is
// sorted into, and decoding rejects any other order or a repeated token —
// so frames can be compared, checksummed and pinned by golden files.
//
// Ownership: a decoded Update never aliases the cursor's input, because the
// engine stores its ciphertext and codes for the object's lifetime and an
// aliased slice would pin the whole network frame. A decoded SearchHit's
// ciphertext does alias the input: the receiver consumes it and drops it.

// AppendTo appends the binary form of u: object id, owner, ciphertext,
// text tokens, image codes, audio codes.
func (u *Update) AppendTo(b []byte) []byte {
	b = bin.AppendString(b, u.ObjectID)
	b = bin.AppendString(b, u.Owner)
	b = bin.AppendBytes(b, u.Ciphertext)
	b = appendTokens(b, SortedTokens(u.TextTokens))
	b = vec.AppendBitVecs(b, u.ImageEncodings)
	return vec.AppendBitVecs(b, u.AudioEncodings)
}

// EncodedSize returns len(u.AppendTo(nil)) without encoding anything, so a
// caller that keeps the encoding (a WAL record, which the replication hub
// retains) can allocate it exactly once and exactly as large.
func (u *Update) EncodedSize() int {
	n := bin.BytesLen(len(u.ObjectID)) + bin.BytesLen(len(u.Owner)) + bin.BytesLen(len(u.Ciphertext))
	n += bin.UvarintLen(uint64(len(u.TextTokens)))
	for _, freq := range u.TextTokens {
		n += len(dpe.Token{}) + bin.UvarintLen(freq)
	}
	return n + vec.BitVecsLen(u.ImageEncodings) + vec.BitVecsLen(u.AudioEncodings)
}

// ConsumeFrom reverses AppendTo; failures are left on the cursor.
func (u *Update) ConsumeFrom(c *bin.Cursor) {
	u.ObjectID = c.String()
	u.Owner = c.String()
	u.Ciphertext = c.BytesCopy()
	var buf [64]TokenFreq // holds a typical update's tokens off the heap
	if ts := consumeTokens(c, buf[:0]); len(ts) > 0 {
		u.TextTokens = make(map[dpe.Token]uint64, len(ts))
		for _, t := range ts {
			u.TextTokens[t.Token] = t.Freq
		}
	}
	u.ImageEncodings = vec.ConsumeBitVecs(c)
	u.AudioEncodings = vec.ConsumeBitVecs(c)
}

// AppendTo appends the binary form of q: text tokens, image codes, audio
// codes, K.
func (q *Query) AppendTo(b []byte) []byte {
	b = appendTokens(b, q.TextTokens)
	b = vec.AppendBitVecs(b, q.ImageEncodings)
	b = vec.AppendBitVecs(b, q.AudioEncodings)
	return bin.AppendVarint(b, int64(q.K))
}

// ConsumeFrom reverses AppendTo; failures are left on the cursor.
func (q *Query) ConsumeFrom(c *bin.Cursor) {
	q.TextTokens = consumeTokens(c, nil)
	q.ImageEncodings = vec.ConsumeBitVecs(c)
	q.AudioEncodings = vec.ConsumeBitVecs(c)
	q.K = c.Int()
}

// AppendTo appends the binary form of h: object id, owner, the score's
// IEEE-754 bits, ciphertext.
func (h *SearchHit) AppendTo(b []byte) []byte {
	b = bin.AppendString(b, h.ObjectID)
	b = bin.AppendString(b, h.Owner)
	b = bin.AppendF64(b, h.Score)
	return bin.AppendBytes(b, h.Ciphertext)
}

// ConsumeFrom reverses AppendTo; failures are left on the cursor. The
// ciphertext is a sub-slice of the cursor's input.
func (h *SearchHit) ConsumeFrom(c *bin.Cursor) {
	h.ObjectID = c.String()
	h.Owner = c.String()
	h.Score = c.F64()
	h.Ciphertext = c.Bytes()
}

// minTokenEntry is the smallest encoding of one token list entry: the token
// and a one-byte frequency.
const minTokenEntry = len(dpe.Token{}) + 1

// appendTokens writes a token list as it stands: its length, then each
// token and its frequency. ts is in strictly ascending token order.
func appendTokens(b []byte, ts []TokenFreq) []byte {
	b = bin.AppendUvarint(b, uint64(len(ts)))
	for i := range ts {
		b = append(b, ts[i].Token[:]...)
		b = bin.AppendUvarint(b, ts[i].Freq)
	}
	return b
}

// consumeTokens reverses appendTokens into buf's backing array when it is
// large enough, failing the cursor on a token that does not follow its
// predecessor in strictly ascending order.
func consumeTokens(c *bin.Cursor, buf []TokenFreq) []TokenFreq {
	n := c.Count(minTokenEntry)
	if n == 0 {
		return nil
	}
	ts := slices.Grow(buf[:0], n)[:n]
	for i := range ts {
		t := &ts[i]
		copy(t.Token[:], c.Take(len(t.Token)))
		if i > 0 && bytes.Compare(ts[i-1].Token[:], t.Token[:]) >= 0 {
			c.Fail("token %d out of order", i)
		}
		t.Freq = c.Uvarint()
	}
	if c.Err() != nil {
		return nil
	}
	return ts
}

// tokensAscending reports whether ts is in strictly ascending token order,
// the form appendTokens writes and consumeTokens accepts.
func tokensAscending(ts []TokenFreq) bool {
	for i := 1; i < len(ts); i++ {
		if bytes.Compare(ts[i-1].Token[:], ts[i].Token[:]) >= 0 {
			return false
		}
	}
	return true
}
