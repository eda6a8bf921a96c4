package index

import (
	"errors"
	"math"
	"sort"
	"sync"

	"mie/internal/text"
)

// ErrClosed is returned by mutating operations on a closed Segmented index.
var ErrClosed = errors.New("index: closed")

// SegmentedOptions configures a Segmented index.
type SegmentedOptions struct {
	// MemtableCap auto-seals the memtable once it holds this many documents.
	// Zero means DefaultMemtableCap; negative disables auto-sealing.
	MemtableCap int
	// CompactSegments is the sealed-segment count at which NeedsCompaction
	// reports true. Zero means DefaultCompactSegments.
	CompactSegments int
	// OnSeal, when set, is called (outside the index lock) after every seal —
	// the hook a background compactor uses to learn that work may exist.
	OnSeal func()
}

// Defaults for SegmentedOptions.
const (
	DefaultMemtableCap     = 1024
	DefaultCompactSegments = 4
)

func (o *SegmentedOptions) setDefaults() {
	if o.MemtableCap == 0 {
		o.MemtableCap = DefaultMemtableCap
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = DefaultCompactSegments
	}
}

// segment is the memtable: the one mutable Inverted inside a Segmented facade.
// Sealing consumes it into a frozen segment (see freeze).
type segment struct {
	id  int
	idx *Inverted
}

// Segmented is an LSM-flavored composition: all writes land in a small mutable
// memtable (an Inverted), Seal freezes the memtable into an immutable columnar
// segment, and Compact merges the sealed segments into one (dropping postings
// of removed or superseded documents). Lookup scans every segment and scores
// exactly as a single Inverted over the same live documents would.
//
// The owner map (doc -> segment id of its current version) is the source of
// truth for writes. Remove and re-Add of a document whose postings sit in a
// sealed segment clear that version's live bit there — the stale sealed
// postings become tombstoned garbage that Lookup skips by a bit test and
// Compact drops.
//
// Segmented is safe for concurrent use. All operations take the facade lock;
// Compact builds its merged segment from immutable inputs without holding it.
type Segmented struct {
	mu          sync.RWMutex
	opts        SegmentedOptions
	nextID      int
	mem         *segment
	sealed      []*frozen // oldest first
	owner       map[DocID]int
	compactions uint64
	closed      bool

	// compactMu serializes Compact calls so two compactors never race to
	// retire the same source segments.
	compactMu sync.Mutex
}

// NewSegmented creates an empty Segmented index.
func NewSegmented(opts SegmentedOptions) *Segmented {
	opts.setDefaults()
	s := &Segmented{
		opts:  opts,
		owner: make(map[DocID]int),
	}
	s.freshMemtableLocked()
	return s
}

// freshMemtableLocked installs a new empty memtable segment.
func (s *Segmented) freshMemtableLocked() {
	s.nextID++
	s.mem = &segment{id: s.nextID, idx: New()}
}

// Add indexes (or re-indexes) a document in the memtable. A previous version
// in a sealed segment is tombstoned by clearing its live bit; one in the
// memtable is removed in place. The memtable auto-seals past MemtableCap.
func (s *Segmented) Add(doc DocID, terms map[Term]uint64) error {
	return s.AddBatch([]BatchDoc{{Doc: doc, Terms: terms}})
}

func (s *Segmented) addLocked(doc DocID, terms map[Term]uint64) error {
	if s.closed {
		return ErrClosed
	}
	s.retireLocked(doc)
	if err := s.mem.idx.Add(doc, clampTerms(terms)); err != nil {
		return err
	}
	s.owner[doc] = s.mem.id
	return nil
}

// retireLocked drops doc's current version, if it has one: removed in place
// from the memtable, tombstoned by its live bit in a sealed segment.
func (s *Segmented) retireLocked(doc DocID) {
	own, ok := s.owner[doc]
	if !ok {
		return
	}
	delete(s.owner, doc)
	if own == s.mem.id {
		s.mem.idx.Remove(doc)
		return
	}
	for _, f := range s.sealed {
		if f.id != own {
			continue
		}
		if ord, ok := f.ordOf(doc); ok {
			f.live[ord] = false
			f.liveN--
		}
		return
	}
}

// clampTerms saturates term frequencies at math.MaxUint32, the widest value a
// frozen column stores. Doing it once, where the facade accepts the document,
// means memtable, frozen segment, compaction and snapshot round-trip all score
// the same value. The caller's map is returned as is unless it overflows.
func clampTerms(terms map[Term]uint64) map[Term]uint64 {
	for _, tf := range terms {
		if tf > math.MaxUint32 {
			clamped := make(map[Term]uint64, len(terms))
			for term, tf := range terms {
				clamped[term] = min(tf, math.MaxUint32)
			}
			return clamped
		}
	}
	return terms
}

// AddBatch is the bulk segment-build primitive: the entire batch lands in the
// current memtable under one lock acquisition (no mid-batch auto-seal), so an
// epoch rebuild can pour a store snapshot into exactly one segment and Seal
// it. On error the batch stops at the offending document; earlier entries
// remain indexed. If the batch pushed the memtable past MemtableCap it is
// sealed once at the end.
func (s *Segmented) AddBatch(docs []BatchDoc) error {
	s.mu.Lock()
	var err error
	for _, d := range docs {
		if err = s.addLocked(d.Doc, d.Terms); err != nil {
			break
		}
	}
	sealedNow := false
	if err == nil && s.opts.MemtableCap > 0 && s.mem.idx.DocCount() >= s.opts.MemtableCap {
		if serr := s.sealLocked(); serr != nil {
			err = serr
		} else {
			sealedNow = true
		}
	}
	cb := s.opts.OnSeal
	s.mu.Unlock()
	if sealedNow && cb != nil {
		cb()
	}
	return err
}

// Remove tombstones a document. Removing an unknown doc is a no-op.
func (s *Segmented) Remove(doc DocID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.retireLocked(doc)
	}
}

// Seal freezes the current memtable into the sealed-segment list and starts a
// fresh one. Sealing an empty memtable is a no-op.
func (s *Segmented) Seal() error {
	s.mu.Lock()
	err := s.sealLocked()
	sealedNow := err == nil
	cb := s.opts.OnSeal
	s.mu.Unlock()
	if sealedNow && cb != nil {
		cb()
	}
	return err
}

func (s *Segmented) sealLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.mem.idx.DocCount() == 0 {
		return nil
	}
	s.sealed = append(s.sealed, freeze(s.mem))
	s.freshMemtableLocked()
	return nil
}

// Has reports whether doc is live in the index.
func (s *Segmented) Has(doc DocID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.owner[doc]
	return ok
}

// DocCount returns the number of live documents.
func (s *Segmented) DocCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.owner)
}

// SegmentStats is a point-in-time snapshot of segment-level state.
type SegmentStats struct {
	SealedSegments int
	MemtableDocs   int
	LiveDocs       int
	DeadDocs       int // tombstoned versions awaiting compaction
	Compactions    uint64
}

// Stats returns current segment statistics.
func (s *Segmented) Stats() SegmentStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return SegmentStats{
		SealedSegments: len(s.sealed),
		MemtableDocs:   s.mem.idx.DocCount(),
		LiveDocs:       len(s.owner),
		DeadDocs:       s.deadLocked(),
		Compactions:    s.compactions,
	}
}

// NeedsCompaction reports whether background compaction would reclaim
// meaningful space or merge enough segments to matter: the sealed-segment
// count reached CompactSegments, or tombstoned garbage outgrew the live set.
func (s *Segmented) NeedsCompaction() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed || len(s.sealed) == 0 {
		return false
	}
	if len(s.sealed) >= s.opts.CompactSegments {
		return true
	}
	dead := s.deadLocked()
	return dead >= len(s.owner)/2 && dead >= 32
}

// deadLocked counts the tombstoned document versions still occupying sealed
// segments — the garbage that compaction reclaims. (The memtable holds none:
// it removes in place.)
func (s *Segmented) deadLocked() int {
	dead := 0
	for _, f := range s.sealed {
		dead += len(f.docs) - f.liveN
	}
	return dead
}

// queryTerm is one query term's share of a Lookup: its query-side frequency,
// and the idf its document frequency across all segments implies.
type queryTerm struct {
	term Term
	qf   float64
	idf  float64 // hoisted out of the posting loops
}

// accPool recycles Lookup's dense score accumulators. Every buffer in it is
// all zeros over its full capacity: Lookup clears exactly the entries it
// touched before putting one back, so reuse costs no memclr.
var accPool sync.Pool

// Lookup ranks live documents against the query term-frequency map over the
// memtable and every sealed segment, and returns the top k. Scores match a
// single Inverted holding the same live documents: document frequency counts
// each live doc once (a sealed posting whose version was removed or re-added
// elsewhere fails its segment's live-bit test).
//
// The whole query runs under one facade read lock, which excludes every writer
// to the memtable and to the live bits. Query terms are walked in sorted order
// (see sortedTerms). Each live document is owned by exactly one segment, so
// per-segment accumulators are disjoint: no cross-segment score merge, one
// heap fed from every segment; DocID strings are touched only for score ties
// and the winners.
func (s *Segmented) Lookup(query map[Term]uint64, k int) []Result {
	if k <= 0 {
		return nil
	}
	qts := make([]queryTerm, 0, len(query))
	for _, term := range sortedTerms(query) {
		qts = append(qts, queryTerm{term: term, qf: float64(query[term])})
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	mem := s.mem.idx
	for i := range qts {
		qt := &qts[i]
		df := len(mem.postings[qt.term])
		for _, f := range s.sealed {
			col := f.cols[qt.term]
			if f.liveN == len(f.docs) {
				df += len(col)
			} else {
				for _, p := range col {
					if f.live[p.ord] {
						df++
					}
				}
			}
		}
		qt.idf = text.TFIDF(1, len(s.owner), df) // 1 * idf
	}

	top := NewTopKHeap(k)
	if len(s.sealed) > 0 {
		maxDocs := 0
		for _, f := range s.sealed {
			maxDocs = max(maxDocs, len(f.docs))
		}
		acc := getAcc(maxDocs) // one buffer serves every segment in turn
		cols := make([][]posting, len(qts))
		for _, f := range s.sealed {
			for i := range qts {
				cols[i] = f.cols[qts[i].term]
			}
			f.score(qts, cols, *acc, top)
		}
		accPool.Put(acc)
	}
	var scores map[DocID]float64 // the memtable stays map-keyed: small and mutable
	for i := range qts {
		qt := &qts[i]
		pl := mem.postings[qt.term]
		if len(pl) > 0 && scores == nil {
			scores = make(map[DocID]float64)
		}
		for doc, tf := range pl {
			scores[doc] += qt.qf * (float64(tf) * qt.idf) // text.TFIDF, idf hoisted
		}
	}
	for doc, sc := range scores {
		if sc > 0 && top.admits(sc) {
			top.Offer(Result{Doc: doc, Score: sc})
		}
	}
	return top.Results()
}

// getAcc returns an all-zero accumulator of at least n entries.
func getAcc(n int) *[]float64 {
	if acc, ok := accPool.Get().(*[]float64); ok && cap(*acc) >= n {
		return acc
	}
	acc := make([]float64, n)
	return &acc
}

// score accumulates the query's weights for this segment's live documents in
// acc (indexed by ordinal, all zero on entry and on return), then offers every
// scored document to top. cols[i] is this segment's column for qts[i]. Summing
// and collecting both walk those columns, so the cost follows the postings
// touched, not the segment's size.
func (f *frozen) score(qts []queryTerm, cols [][]posting, acc []float64, top *TopKHeap) {
	for i, col := range cols {
		qt := &qts[i]
		for _, p := range col {
			if f.live[p.ord] {
				// The expression text.TFIDF evaluates, idf computed once.
				acc[p.ord] += qt.qf * (float64(p.tf) * qt.idf)
			}
		}
	}
	for _, col := range cols {
		for _, p := range col {
			sc := acc[p.ord]
			if sc == 0 {
				continue // dead, zero-weight, or already collected via another term
			}
			acc[p.ord] = 0
			if top.admits(sc) {
				top.Offer(Result{Doc: f.docs[p.ord], Score: sc})
			}
		}
	}
}

// Search is Lookup under the name the repository layer uses for every index
// type, so Segmented is a drop-in for Inverted in ranked retrieval.
func (s *Segmented) Search(query map[Term]uint64, k int) []Result {
	return s.Lookup(query, k)
}

// Compact merges every sealed segment into a single new frozen segment,
// dropping tombstoned garbage. The merged segment is built and frozen from the
// immutable sources without holding the facade lock (a brief lock snapshots
// the segment list and the live bits), so Lookup/Add/Remove proceed
// concurrently; a short write lock swaps it in and, in the same pass that
// re-points owners, clears the live bit of every document removed or re-added
// while the merge ran — those stale copies are skipped at read time and
// reclaimed by the next compaction.
func (s *Segmented) Compact() {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Phase 1: snapshot sources and their liveness, and reserve the merged
	// segment's id, under a brief lock.
	s.mu.Lock()
	if s.closed || len(s.sealed) == 0 {
		s.mu.Unlock()
		return
	}
	srcs := append([]*frozen(nil), s.sealed...)
	srcIDs := make(map[int]bool, len(srcs))
	liveAt := make([][]bool, len(srcs))
	for i, f := range srcs {
		srcIDs[f.id] = true
		liveAt[i] = append([]bool(nil), f.live...)
	}
	s.nextID++
	mergedID := s.nextID
	s.mu.Unlock()

	// Phase 2: pour the live documents into a fresh Inverted and freeze it,
	// off-lock, from immutable sources.
	merged := mergeSegments(mergedID, srcs, liveAt)

	// Phase 3: swap under the write lock.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	// Keep sealed segments that appeared after the snapshot (seals during the
	// build); the merged segment replaces the sources as the oldest entry.
	kept := []*frozen{merged}
	for _, f := range s.sealed {
		if !srcIDs[f.id] {
			kept = append(kept, f)
		}
	}
	s.sealed = kept
	// A merged document is live iff a source still owns it. Sealed segments
	// never gain documents, so every owner entry naming a source is in
	// merged.docs and this pass re-points them all.
	for ord, doc := range merged.docs {
		if own, ok := s.owner[doc]; ok && srcIDs[own] {
			s.owner[doc] = merged.id
		} else {
			merged.live[ord] = false
			merged.liveN--
		}
	}
	s.compactions++
}

// mergeSegments builds the frozen segment holding every document of srcs whose
// liveAt entry is set. It reads only the sources' immutable parts.
func mergeSegments(id int, srcs []*frozen, liveAt [][]bool) *frozen {
	pour := &segment{id: id, idx: New()} // private until frozen: no lock needed
	for i, f := range srcs {
		for _, d := range f.liveDocs(liveAt[i]) {
			pour.idx.addLocked(d.Doc, d.Terms)
		}
	}
	return freeze(pour)
}

// SegmentBatches returns the live contents grouped by owning segment, oldest
// sealed segment first and the memtable last (always present, possibly
// empty). Loading the groups back with LoadSegments reproduces an equivalent
// segment layout with all garbage dropped — this is the snapshot
// serialization primitive.
func (s *Segmented) SegmentBatches() ([][]BatchDoc, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	var groups [][]BatchDoc
	for _, f := range s.sealed {
		if batch := f.liveDocs(f.live); len(batch) > 0 { // a fully-garbage sealed segment is dropped
			groups = append(groups, batch)
		}
	}
	return append(groups, s.mem.idx.liveDocs()), nil
}

// LoadSegments rebuilds segment state from SegmentBatches output: every group
// but the last becomes a sealed segment, the last is loaded into the
// memtable. The index must be empty.
func (s *Segmented) LoadSegments(groups [][]BatchDoc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(s.owner) != 0 || len(s.sealed) != 0 {
		return errors.New("index: LoadSegments on non-empty index")
	}
	for i, group := range groups {
		for _, d := range group {
			if err := s.addLocked(d.Doc, d.Terms); err != nil {
				return err
			}
		}
		if i < len(groups)-1 {
			if err := s.sealLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close marks the index closed: further mutations fail with ErrClosed and an
// in-flight Compact drops its result at its swap point.
func (s *Segmented) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

// liveDocs returns every document of a memtable with its full term-frequency
// map, in DocID order for determinism.
func (ix *Inverted) liveDocs() []BatchDoc {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]BatchDoc, 0, len(ix.docTerms))
	for doc, set := range ix.docTerms {
		terms := make(map[Term]uint64, len(set))
		for term := range set {
			terms[term] = ix.postings[term][doc]
		}
		out = append(out, BatchDoc{Doc: doc, Terms: terms})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out
}
