// Package vec provides the small linear-algebra and bit-vector kernel used
// throughout the MIE framework: dense float feature vectors, Euclidean
// geometry, and packed binary vectors with Hamming distances.
//
// Feature vectors in this codebase are always []float64. Distance-preserving
// encodings (package dpe) map them to packed BitVec values whose normalized
// Hamming distance mirrors the Euclidean distance between the plaintexts.
package vec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"mie/internal/bin"
)

// Euclidean returns the Euclidean (L2) distance between a and b.
// It panics if the dimensions differ.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Euclidean dimension mismatch %d != %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// SquaredEuclidean returns the squared L2 distance, avoiding the final sqrt.
// Useful in k-means inner loops where only the ordering matters.
func SquaredEuclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: SquaredEuclidean dimension mismatch %d != %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// Norm returns the L2 norm of v.
func Norm(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// Normalize scales v in place to unit L2 norm and returns it. A zero vector
// is returned unchanged.
func Normalize(v []float64) []float64 {
	n := Norm(v)
	if n == 0 {
		return v
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Scale multiplies every component of v by s, in place, and returns v.
func Scale(v []float64, s float64) []float64 {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Add accumulates src into dst in place. Panics on dimension mismatch.
func Add(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: Add dimension mismatch %d != %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Clone returns a fresh copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// BitVec is a packed vector of bits, the output domain of Dense-DPE.
// Bits beyond Len in the final word are always zero.
type BitVec struct {
	words []uint64
	n     int
}

// NewBitVec returns an all-zero bit vector of n bits.
func NewBitVec(n int) BitVec {
	return BitVec{words: make([]uint64, (n+63)/64), n: n}
}

// BitVecFromWords reconstructs a BitVec from its raw words (e.g. after
// deserialization). Trailing bits beyond n are masked off.
func BitVecFromWords(words []uint64, n int) (BitVec, error) {
	need := (n + 63) / 64
	if len(words) != need {
		return BitVec{}, fmt.Errorf("vec: BitVecFromWords: got %d words, need %d for %d bits", len(words), need, n)
	}
	w := make([]uint64, need)
	copy(w, words)
	if n%64 != 0 && need > 0 {
		w[need-1] &= (uint64(1) << uint(n%64)) - 1
	}
	return BitVec{words: w, n: n}, nil
}

// Len returns the number of bits.
func (b BitVec) Len() int { return b.n }

// Set sets bit i to v.
func (b BitVec) Set(i int, v bool) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("vec: BitVec.Set index %d out of range [0,%d)", i, b.n))
	}
	if v {
		b.words[i/64] |= 1 << uint(i%64)
	} else {
		b.words[i/64] &^= 1 << uint(i%64)
	}
}

// SetWord overwrites bits 64i … 64i+63 with w, bit 64i being w's lowest. Bits
// of w at or beyond Len are dropped, so the trailing bits stay zero. It
// panics if word i is out of range.
func (b BitVec) SetWord(i int, w uint64) {
	if r := b.n - 64*i; r >= 0 && r < 64 {
		w &= uint64(1)<<uint(r) - 1
	}
	b.words[i] = w
}

// Clone returns a deep copy.
func (b BitVec) Clone() BitVec {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return BitVec{words: w, n: b.n}
}

// GobEncode serializes the bit vector (length + packed words) so encodings
// can cross the wire protocol.
func (b BitVec) GobEncode() ([]byte, error) {
	out := make([]byte, 8+8*len(b.words))
	binary.BigEndian.PutUint64(out[:8], uint64(b.n))
	for i, w := range b.words {
		binary.BigEndian.PutUint64(out[8+8*i:], w)
	}
	return out, nil
}

// GobDecode reverses GobEncode.
func (b *BitVec) GobDecode(data []byte) error {
	if len(data) < 8 {
		return errors.New("vec: BitVec gob data too short")
	}
	n := int(binary.BigEndian.Uint64(data[:8]))
	if n < 0 {
		return errors.New("vec: BitVec gob negative length")
	}
	need := (n + 63) / 64
	if len(data) != 8+8*need {
		return fmt.Errorf("vec: BitVec gob data has %d bytes, want %d for %d bits", len(data), 8+8*need, n)
	}
	words := make([]uint64, need)
	for i := range words {
		words[i] = binary.BigEndian.Uint64(data[8+8*i:])
	}
	decoded, err := BitVecFromWords(words, n)
	if err != nil {
		return err
	}
	*b = decoded
	return nil
}

// AppendBitVecs appends the binary form of a list of bit vectors: the count,
// every vector's bit length, then every vector's packed words (eight
// big-endian bytes each). The lengths come first so a reader can size one
// words arena for the whole list before touching the words.
func AppendBitVecs(b []byte, vs []BitVec) []byte {
	b = bin.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = bin.AppendUvarint(b, uint64(v.n))
	}
	for _, v := range vs {
		for _, w := range v.words {
			b = bin.AppendU64(b, w)
		}
	}
	return b
}

// BitVecsLen returns the number of bytes AppendBitVecs writes for vs.
func BitVecsLen(vs []BitVec) int {
	n := bin.UvarintLen(uint64(len(vs)))
	for _, v := range vs {
		n += bin.UvarintLen(uint64(v.n)) + 8*len(v.words)
	}
	return n
}

// ConsumeBitVecs reverses AppendBitVecs. The vectors share one freshly
// allocated words arena (two allocations per list, not one per vector) and
// never alias the cursor's input, so they may outlive it. An empty list
// decodes as nil. Set bits beyond a vector's length are rejected: they
// would break the BitVec invariant and give one vector two encodings.
func ConsumeBitVecs(c *bin.Cursor) []BitVec {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	vs := make([]BitVec, n)
	total := 0
	for i := range vs {
		bits := c.Uvarint()
		if bits > 8*uint64(c.Remaining()) {
			c.Fail("bit vector of %d bits in %d bytes", bits, c.Remaining())
			return nil
		}
		vs[i].n = int(bits)
		total += (vs[i].n + 63) / 64
	}
	raw := c.Take(8 * total)
	if c.Err() != nil {
		return nil
	}
	arena := make([]uint64, total)
	for i := range arena {
		arena[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	for i := range vs {
		k := (vs[i].n + 63) / 64
		vs[i].words, arena = arena[:k:k], arena[k:]
		if r := vs[i].n % 64; r != 0 && vs[i].words[k-1]>>uint(r) != 0 {
			c.Fail("bit vector %d has bits set beyond its %d-bit length", i, vs[i].n)
			return nil
		}
	}
	return vs
}

// Hamming returns the number of differing bits between a and b.
func Hamming(a, b BitVec) int {
	if a.n != b.n {
		panic(fmt.Sprintf("vec: Hamming length mismatch %d != %d", a.n, b.n))
	}
	return HammingWords(a.words, b.words)
}

// HammingWords returns the number of differing bits between two packed word
// blocks — the one popcount loop every Hamming-distance path shares. Callers
// must uphold the BitVec invariant that bits beyond the logical length are
// zero; panics on mismatched word counts.
func HammingWords(a, b []uint64) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: HammingWords length mismatch %d != %d", len(a), len(b)))
	}
	var c int
	for i := range a {
		c += bits.OnesCount64(a[i] ^ b[i])
	}
	return c
}

// BitVotes counts, for each of several groups of n-bit vectors, how many of
// the group's vectors have each bit set, and turns the counts into the
// group's per-bit majority: the 1-median that Hamming k-means moves a
// centroid to. The counts are bit-sliced: a group holds bits.Len(maxVotes)
// planes of ⌈n/64⌉ words, plane j carrying bit j of every position's count,
// so adding a vector is a ripple-carry over the planes, 64 positions per
// word operation.
type BitVotes struct {
	n, words, planes, maxVotes int
	cells                      []uint64 // group, then word, then plane
	counts                     []int
}

// NewBitVotes returns empty counters for groups groups of n-bit vectors,
// each able to take up to maxVotes vectors.
func NewBitVotes(groups, n, maxVotes int) *BitVotes {
	words, planes := (n+63)/64, bits.Len(uint(maxVotes))
	return &BitVotes{
		n: n, words: words, planes: planes, maxVotes: maxVotes,
		cells:  make([]uint64, groups*words*planes),
		counts: make([]int, groups),
	}
}

// Reset empties every group.
func (v *BitVotes) Reset() {
	clear(v.cells)
	clear(v.counts)
}

// Count returns how many vectors group g holds.
func (v *BitVotes) Count(g int) int { return v.counts[g] }

// Add counts b into group g. It panics if b is not n bits long or the group
// already holds maxVotes vectors.
func (v *BitVotes) Add(g int, b BitVec) {
	if b.n != v.n {
		panic(fmt.Sprintf("vec: BitVotes.Add length mismatch %d != %d", b.n, v.n))
	}
	if v.counts[g] == v.maxVotes {
		panic(fmt.Sprintf("vec: BitVotes.Add past %d votes", v.maxVotes))
	}
	v.counts[g]++
	cells := v.cells[g*v.words*v.planes:]
	for w, carry := range b.words {
		s := cells[w*v.planes : (w+1)*v.planes]
		for j := 0; carry != 0; j++ {
			s[j], carry = s[j]^carry, s[j]&carry
		}
	}
}

// Majority overwrites dst with group g's per-bit majority and returns how
// many bits changed. A bit becomes 1 where more than half of the group's
// vectors have it set and 0 where fewer than half do; where exactly half do
// (an even count only) it keeps dst's bit. It panics if dst is not n bits
// long.
func (v *BitVotes) Majority(g int, dst BitVec) int {
	if dst.n != v.n {
		panic(fmt.Sprintf("vec: BitVotes.Majority length mismatch %d != %d", dst.n, v.n))
	}
	half, even := v.counts[g]>>1, v.counts[g]&1 == 0
	cells := v.cells[g*v.words*v.planes:]
	changed := 0
	for w, cur := range dst.words {
		s := cells[w*v.planes : (w+1)*v.planes]
		// Compare every position's count with half, most significant plane
		// first: gt marks counts already known to exceed it, eq those equal
		// so far.
		gt, eq := uint64(0), ^uint64(0)
		for j := v.planes - 1; j >= 0; j-- {
			if half>>j&1 == 1 {
				eq &= s[j]
			} else {
				gt |= eq & s[j]
				eq &^= s[j]
			}
		}
		next := gt
		if even {
			next |= eq & cur
		}
		changed += bits.OnesCount64(next ^ cur)
		dst.words[w] = next
	}
	return changed
}

// NormHamming returns the Hamming distance normalized to [0,1].
func NormHamming(a, b BitVec) float64 {
	if a.n == 0 {
		return 0
	}
	return float64(Hamming(a, b)) / float64(a.n)
}
