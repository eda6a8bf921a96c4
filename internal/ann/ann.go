// Package ann implements sublinear approximate nearest-neighbor candidate
// generation in Hamming space: multi-probe bit-sampling LSH over packed
// binary codes (the output domain of Dense-DPE), followed by an exact
// re-rank that scores every candidate against the query with whole-word
// popcounts straight out of a flat []uint64 code block.
//
// The structure is L hash tables, each hashing a code by K sampled bit
// positions. A lookup probes the query's own bucket first, then buckets
// whose keys differ in the lowest-confidence hash bits (Lv et al.'s
// multi-probe idea adapted to binary codes): a sampled bit whose corpus
// distribution is balanced near p=0.5 carries the least locality signal and
// is the most likely to have flipped between near neighbors, so flip masks
// are enumerated in increasing order of total imbalance weight. With a probe
// budget of 2^K every bucket of every table is reachable and the candidate
// set provably covers all live codes — the exhaustive setting the parity
// tests pin against the exact linear scan.
//
// Candidates are deduplicated across tables and probes with a visited
// bitmap, then scored in one ascending sweep over the flat code block —
// sequential memory order, vec.HammingWords per candidate, no per-bit access
// and no BitVec materialization.
package ann

import (
	"container/heap"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"mie/internal/vec"
)

// Options tunes an Index. Zero values take the defaults.
type Options struct {
	// Tables is L, the number of independent hash tables; 0 means 8.
	Tables int
	// Bits is K, the number of sampled bit positions per table (capped at
	// the code length); 0 means 16.
	Bits int
	// Probes is the per-table bucket-probe budget, including the query's own
	// bucket (capped at 2^K, where every bucket is reachable); 0 means 12.
	Probes int
	// Seed drives the per-table bit sampling; 0 means 1.
	Seed int64
}

func (o *Options) setDefaults() {
	if o.Tables <= 0 {
		o.Tables = 8
	}
	if o.Bits <= 0 {
		o.Bits = 16
	}
	if o.Probes <= 0 {
		o.Probes = 12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Candidate is one live code surfaced by a probe, already exactly scored.
type Candidate struct {
	// Slot is the code's position in the flat block. Slots keep their
	// relative order for the life of the index but are renumbered when the
	// index compacts itself, which only a replace or a remove can cause: an
	// index that has only ever been appended to under distinct keys (one
	// codebook word per key, say) numbers its codes 0, 1, 2, … in insertion
	// order for good.
	Slot int
	// Key is the owner the code was added under.
	Key string
	// Dist is the exact Hamming distance between the code and the query.
	Dist int
}

// ProbeStats counts the work one Probe performed.
type ProbeStats struct {
	// Probes is the number of bucket lookups across all tables.
	Probes int
	// Candidates is the number of distinct live codes scored.
	Candidates int
}

// Stats is a point-in-time summary of an Index.
type Stats struct {
	// Live and Dead count codes; Dead are tombstoned slots the next
	// self-compaction reclaims (Dead never exceeds Live between mutations).
	Live, Dead int
	// Bits is the code length in bits (0 until the first insert).
	Bits int
	// Tables is L.
	Tables int
}

// table is one of the L hash tables: K sampled bit positions, the buckets
// they induce, and per-bit ones-counts over the live codes (the confidence
// signal the probe sequence orders flips by).
type table struct {
	bits    []int
	ones    []int
	buckets map[uint64][]int32
	masks   []uint64 // cached probe sequence; rebuilt when masksDirty
}

// Index is a multi-probe LSH index over fixed-length binary codes. Multiple
// codes may share one key (an object contributes every encoding of one
// modality); AddAll replaces, Remove tombstones, and the index compacts
// itself whenever tombstones outnumber live codes, so its memory is bounded
// by its live set however long it is overwritten. All methods are safe for
// concurrent use: Probe takes a read lock, mutators a write lock.
type Index struct {
	mu   sync.RWMutex
	opts Options

	nbits    int // code length; fixed by the first insert
	wordsPer int // words per code

	codes []uint64 // flat block, wordsPer words per slot
	keys  []string // slot -> owning key
	live  []bool   // slot -> not tombstoned
	slots map[string][]int32

	liveCount  int
	deadCount  int
	tables     []*table
	masksDirty bool
	disabled   bool
}

// New creates an empty index. The code length is fixed by the first insert.
func New(opts Options) *Index {
	opts.setDefaults()
	return &Index{opts: opts, slots: make(map[string][]int32)}
}

// initLocked fixes the code length and samples each table's bit positions.
// Sampling is seeded, so two indexes built with the same options over codes
// of the same length choose identical positions — the determinism snapshot
// restore relies on.
func (ix *Index) initLocked(nbits int) {
	ix.nbits = nbits
	ix.wordsPer = (nbits + 63) / 64
	k := ix.opts.Bits
	if k > nbits {
		k = nbits
	}
	ix.tables = make([]*table, ix.opts.Tables)
	for t := range ix.tables {
		rng := rand.New(rand.NewSource(ix.opts.Seed + int64(t)*7919))
		perm := rng.Perm(nbits)
		ix.tables[t] = &table{
			bits:    perm[:k],
			ones:    make([]int, k),
			buckets: make(map[uint64][]int32),
		}
	}
	ix.masksDirty = true
}

// hashWords computes a table's K-bit bucket key for one packed code.
func hashWords(w []uint64, bitPos []int) uint64 {
	var h uint64
	for j, b := range bitPos {
		h |= (w[b>>6] >> (uint(b) & 63) & 1) << uint(j)
	}
	return h
}

// AddAll replaces key's codes with the given set: any previous codes are
// tombstoned, then each new code is inserted. An empty set is a plain
// remove. All codes in an index must share one length; a mismatch returns
// an error with the index unchanged beyond the removal.
func (ix *Index) AddAll(key string, codes []vec.BitVec) error {
	if key == "" {
		return errors.New("ann: empty key")
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.disabled {
		return nil
	}
	ix.removeLocked(key)
	defer ix.boundDeadLocked()
	for _, c := range codes {
		if c.Len() == 0 {
			return errors.New("ann: zero-length code")
		}
		if ix.nbits == 0 {
			ix.initLocked(c.Len())
		}
		if c.Len() != ix.nbits {
			return fmt.Errorf("ann: code length %d != index code length %d", c.Len(), ix.nbits)
		}
		ix.codes = c.AppendWords(ix.codes)
		ix.indexTailLocked(key)
	}
	return nil
}

// indexTailLocked gives the code just appended to the flat block its slot:
// owner, liveness, and an entry in every table.
func (ix *Index) indexTailLocked(key string) {
	slot := int32(len(ix.keys))
	w := ix.codes[int(slot)*ix.wordsPer:]
	ix.keys = append(ix.keys, key)
	ix.live = append(ix.live, true)
	ix.liveCount++
	ix.slots[key] = append(ix.slots[key], slot)
	for _, t := range ix.tables {
		h := hashWords(w, t.bits)
		t.buckets[h] = append(t.buckets[h], slot)
		for j, b := range t.bits {
			if w[b>>6]>>(uint(b)&63)&1 == 1 {
				t.ones[j]++
			}
		}
	}
	ix.masksDirty = true
}

// Remove tombstones every code stored under key. Unknown keys are a no-op.
// Bucket entries are left in place (skipped by probes) until the index next
// compacts itself, the same tombstone discipline the segmented inverted
// index uses.
func (ix *Index) Remove(key string) {
	ix.mu.Lock()
	ix.removeLocked(key)
	ix.boundDeadLocked()
	ix.mu.Unlock()
}

// boundDeadLocked compacts once tombstones outnumber live codes. A pass
// costs O(live) and needs more than that many removals to come due again,
// so it is amortised O(1) per code removed, and the flat block never holds
// more than twice the live set plus one key's codes.
func (ix *Index) boundDeadLocked() {
	if ix.deadCount > ix.liveCount {
		ix.compactLocked()
	}
}

func (ix *Index) removeLocked(key string) {
	for _, slot := range ix.slots[key] {
		if !ix.live[slot] {
			continue
		}
		ix.live[slot] = false
		ix.liveCount--
		ix.deadCount++
		w := ix.codes[int(slot)*ix.wordsPer : (int(slot)+1)*ix.wordsPer]
		for _, t := range ix.tables {
			for j, b := range t.bits {
				if w[b>>6]>>(uint(b)&63)&1 == 1 {
					t.ones[j]--
				}
			}
		}
	}
	delete(ix.slots, key)
	ix.masksDirty = true
}

// compactLocked rebuilds the flat block and every table without the
// tombstoned slots, in surviving-slot order — so what a probe returns stays
// a function of the live set and its insertion order, whenever the pass
// happens to run.
func (ix *Index) compactLocked() {
	oldCodes, oldKeys, oldLive, wp := ix.codes, ix.keys, ix.live, ix.wordsPer
	ix.codes = make([]uint64, 0, ix.liveCount*wp)
	ix.keys = make([]string, 0, ix.liveCount)
	ix.live = make([]bool, 0, ix.liveCount)
	ix.slots = make(map[string][]int32, len(ix.slots))
	ix.liveCount, ix.deadCount = 0, 0
	for _, t := range ix.tables {
		t.buckets = make(map[uint64][]int32)
		for j := range t.ones {
			t.ones[j] = 0
		}
	}
	for slot, key := range oldKeys {
		if !oldLive[slot] {
			continue
		}
		ix.codes = append(ix.codes, oldCodes[slot*wp:(slot+1)*wp]...)
		ix.indexTailLocked(key)
	}
}

// Disable empties the index and rejects all further inserts; probes return
// nothing and Live reports zero, so callers routing by corpus size fall back
// to their exact path. Used when a corpus turns out not to be ANN-indexable
// (heterogeneous code lengths).
func (ix *Index) Disable() {
	ix.mu.Lock()
	ix.disabled = true
	ix.codes, ix.keys, ix.live, ix.tables = nil, nil, nil, nil
	ix.slots = make(map[string][]int32)
	ix.liveCount, ix.deadCount, ix.nbits = 0, 0, 0
	ix.mu.Unlock()
}

// Live returns the number of live (non-tombstoned) codes.
func (ix *Index) Live() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.liveCount
}

// CodeBits returns the code length in bits (0 until the first insert).
func (ix *Index) CodeBits() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nbits
}

// IndexStats returns a point-in-time summary.
func (ix *Index) IndexStats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{Live: ix.liveCount, Dead: ix.deadCount, Bits: ix.nbits, Tables: len(ix.tables)}
}

// Probe returns the live candidates for one query code, deduplicated across
// tables and probes and exactly scored, in ascending slot order (the flat
// block's memory order). Queries of the wrong length, and probes of an empty
// or disabled index, return nil.
func (ix *Index) Probe(code vec.BitVec) ([]Candidate, ProbeStats) {
	ix.mu.RLock()
	if ix.masksDirty {
		// The probe sequences are stale (codes changed since the last probe);
		// upgrade to the write lock to rebuild them, then downgrade. A racing
		// mutator may re-dirty the masks before the read lock is reacquired —
		// that only costs probe-order quality on this lookup, never
		// correctness, and the next probe rebuilds again.
		ix.mu.RUnlock()
		ix.mu.Lock()
		if ix.masksDirty {
			ix.refreshMasksLocked()
		}
		ix.mu.Unlock()
		ix.mu.RLock()
	}
	defer ix.mu.RUnlock()
	var st ProbeStats
	if ix.liveCount == 0 || code.Len() != ix.nbits {
		return nil, st
	}
	// The query's words are read into a stack buffer (codes longer than it
	// spill to the heap): probing allocates for its results only.
	var qbuf [64]uint64
	qw := code.AppendWords(qbuf[:0])
	visited := make([]uint64, (len(ix.keys)+63)/64)
	for _, t := range ix.tables {
		h := hashWords(qw, t.bits)
		for _, m := range t.masks {
			st.Probes++
			for _, slot := range t.buckets[h^m] {
				if ix.live[slot] {
					visited[slot>>6] |= 1 << (uint(slot) & 63)
				}
			}
		}
	}
	// Re-rank: one ascending sweep over the visited slots, scoring each
	// candidate's flat code block with whole-word popcounts.
	wp := ix.wordsPer
	var out []Candidate
	for wi, wv := range visited {
		for wv != 0 {
			b := bits.TrailingZeros64(wv)
			wv &^= 1 << uint(b)
			slot := wi*64 + b
			d := vec.HammingWords(qw, ix.codes[slot*wp:(slot+1)*wp])
			out = append(out, Candidate{Slot: slot, Key: ix.keys[slot], Dist: d})
		}
	}
	st.Candidates = len(out)
	return out, st
}

// refreshMasksLocked rebuilds every table's probe-mask sequence from the
// current per-bit balance statistics.
func (ix *Index) refreshMasksLocked() {
	for _, t := range ix.tables {
		t.masks = probeMasks(t, ix.liveCount, ix.opts.Probes)
	}
	ix.masksDirty = false
}

// maskNode is one step of the best-first flip-set enumeration: set is a
// bitmask over the *sorted* bit indices, last the highest sorted index in
// the set, weight the set's total imbalance.
type maskNode struct {
	weight float64
	last   int
	set    uint64
}

type maskHeap []maskNode

func (h maskHeap) Len() int { return len(h) }
func (h maskHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].set < h[j].set // deterministic tie-break
}
func (h maskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maskHeap) Push(x interface{}) { *h = append(*h, x.(maskNode)) }
func (h *maskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// probeMasks computes one table's probe sequence: the zero mask (the query's
// own bucket) followed by flip masks in nondecreasing order of total
// imbalance weight. Each sampled bit's weight is |p(bit=1) - 0.5| over the
// live corpus — a balanced bit splits near neighbors across buckets most
// often and is flipped first. Enumeration is the classic shift/expand
// best-first walk over subsets of the weight-sorted bits, which yields every
// non-empty subset exactly once; the budget caps it, and a budget of 2^K
// yields all of them.
func probeMasks(t *table, liveCount, probes int) []uint64 {
	k := len(t.bits)
	maxMasks := probes
	if k < 31 && maxMasks > 1<<uint(k) {
		maxMasks = 1 << uint(k)
	}
	masks := make([]uint64, 0, maxMasks)
	masks = append(masks, 0)
	if maxMasks <= 1 || k == 0 {
		return masks
	}
	w := make([]float64, k)
	for j := range w {
		p := 0.5
		if liveCount > 0 {
			p = float64(t.ones[j]) / float64(liveCount)
		}
		if p < 0.5 {
			w[j] = 0.5 - p
		} else {
			w[j] = p - 0.5
		}
	}
	ord := make([]int, k)
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return w[ord[a]] < w[ord[b]] })
	ws := make([]float64, k)
	for i, j := range ord {
		ws[i] = w[j]
	}
	h := &maskHeap{{weight: ws[0], last: 0, set: 1}}
	heap.Init(h)
	for len(masks) < maxMasks && h.Len() > 0 {
		nd := heap.Pop(h).(maskNode)
		var m uint64
		for s := nd.set; s != 0; {
			i := bits.TrailingZeros64(s)
			s &^= 1 << uint(i)
			m |= 1 << uint(ord[i])
		}
		masks = append(masks, m)
		if nd.last+1 < k {
			// Shift: move the highest flipped bit one position up.
			heap.Push(h, maskNode{
				weight: nd.weight - ws[nd.last] + ws[nd.last+1],
				last:   nd.last + 1,
				set:    nd.set&^(1<<uint(nd.last)) | 1<<uint(nd.last+1),
			})
			// Expand: also flip the next position.
			heap.Push(h, maskNode{
				weight: nd.weight + ws[nd.last+1],
				last:   nd.last + 1,
				set:    nd.set | 1<<uint(nd.last+1),
			})
		}
	}
	return masks
}
