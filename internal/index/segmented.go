package index

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mie/internal/text"
)

// ErrClosed is returned by mutating operations on a closed Segmented index.
var ErrClosed = errors.New("index: closed")

// SegmentedOptions configures a Segmented index.
type SegmentedOptions struct {
	// Index carries the per-segment options. SpillDir, when champion lists
	// are enabled, is treated as a parent directory: every segment spills
	// into its own SpillDir/seg-<id> subdirectory so segment lifecycles
	// (seal, compact, drop) stay independent on disk.
	Index Options
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
	id       int
	idx      *Inverted
	spillDir string // this segment's private spill dir ("" without champions)
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
	totalLen    uint64 // sum of live document lengths (BM25 avgdl)
	compactions uint64
	closed      bool

	// compactMu serializes Compact calls so two compactors never race to
	// retire the same source segments.
	compactMu sync.Mutex
}

// NewSegmented creates an empty Segmented index.
func NewSegmented(opts SegmentedOptions) (*Segmented, error) {
	opts.setDefaults()
	s := &Segmented{
		opts:  opts,
		owner: make(map[DocID]int),
	}
	if err := s.freshMemtableLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// freshMemtableLocked installs a new empty memtable segment.
func (s *Segmented) freshMemtableLocked() error {
	s.nextID++
	mem, err := s.newSegment(s.nextID)
	if err != nil {
		return err
	}
	s.mem = mem
	return nil
}

// newSegment creates an empty mutable segment with its private spill dir.
func (s *Segmented) newSegment(id int) (*segment, error) {
	opts := s.opts.Index
	dir := ""
	if opts.ChampionSize > 0 {
		dir = filepath.Join(opts.SpillDir, fmt.Sprintf("seg-%d", id))
		opts.SpillDir = dir
	}
	idx, err := New(opts)
	if err != nil {
		return nil, err
	}
	return &segment{id: id, idx: idx, spillDir: dir}, nil
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
	s.totalLen += s.mem.idx.docLens[doc]
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
		s.totalLen -= s.mem.idx.docLens[doc]
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
			s.totalLen -= f.lens[ord]
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
	f, err := freeze(s.mem)
	if err != nil {
		return err
	}
	s.sealed = append(s.sealed, f)
	return s.freshMemtableLocked()
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

// queryTerm is one query term's share of a Lookup, filled in two steps:
// document frequency across all segments first, then the weights it implies.
type queryTerm struct {
	term Term
	qf   float64 // query-side frequency
	df   int     // live documents holding the term, plus spilled postings
	idf  float64 // tf-idf only: hoisted out of the posting loop
}

// accPool recycles Lookup's dense score accumulators. Every buffer in it is
// all zeros over its full capacity: Lookup clears exactly the entries it
// touched before putting one back, so reuse costs no memclr.
var accPool sync.Pool

// Lookup ranks live documents against the query term-frequency map over the
// memtable and every sealed segment, and returns the top k. Scores match a
// single Inverted holding the same live documents: document frequency counts
// each live doc once (a sealed posting whose version was removed or re-added
// elsewhere fails its segment's live-bit test), and BM25 length statistics
// aggregate across segments.
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
	docCount := len(s.owner)
	bm25 := s.opts.Index.Ranking == RankBM25
	var avgLen float64
	if docCount > 0 {
		avgLen = float64(s.totalLen) / float64(docCount)
	}
	mem := s.mem.idx
	for i := range qts {
		qt := &qts[i]
		qt.df = len(mem.postings[qt.term]) + mem.spilled[qt.term]
		for _, f := range s.sealed {
			col := f.cols[qt.term]
			if f.liveN == len(f.docs) {
				qt.df += len(col)
			} else {
				for _, p := range col {
					if f.live[p.ord] {
						qt.df++
					}
				}
			}
			if f.spill != nil {
				qt.df += f.spilled[qt.term]
			}
		}
		if !bm25 {
			qt.idf = text.TFIDF(1, docCount, qt.df) // 1 * idf
		}
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
			f.score(qts, cols, bm25, docCount, avgLen, *acc, top)
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
			if bm25 {
				scores[doc] += qt.qf * text.BM25(tf, docCount, qt.df, float64(mem.docLens[doc]), avgLen, 0, 0)
			} else {
				scores[doc] += qt.qf * (float64(tf) * qt.idf)
			}
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
func (f *frozen) score(qts []queryTerm, cols [][]posting, bm25 bool, docCount int, avgLen float64, acc []float64, top *TopKHeap) {
	for i, col := range cols {
		qt := &qts[i]
		for _, p := range col {
			if !f.live[p.ord] {
				continue
			}
			if bm25 {
				acc[p.ord] += qt.qf * text.BM25(uint64(p.tf), docCount, qt.df, float64(f.lens[p.ord]), avgLen, 0, 0)
			} else {
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
// dropping tombstoned garbage and merging spilled postings back up to the
// champion bound. The merged segment is built and frozen from the immutable
// sources without holding the facade lock (a brief lock snapshots the segment
// list and the live bits), so Lookup/Add/Remove proceed concurrently; a short
// write lock swaps it in and, in the same pass that re-points owners, clears
// the live bit of every document removed or re-added while the merge ran —
// those stale copies are skipped at read time and reclaimed by the next
// compaction.
func (s *Segmented) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Phase 1: snapshot sources and their liveness, and reserve the merged
	// segment's id, under a brief lock.
	s.mu.Lock()
	if s.closed || len(s.sealed) == 0 {
		s.mu.Unlock()
		return nil
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
	merged, err := s.mergeSegments(mergedID, srcs, liveAt)
	if err != nil {
		return err
	}

	// Phase 3: swap under the write lock.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return merged.retire()
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
	s.mu.Unlock()

	// Phase 4: retire the source segments.
	var firstErr error
	for _, f := range srcs {
		if err := f.retire(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// mergeSegments builds the frozen segment holding every document of srcs whose
// liveAt entry is set. It reads only the sources' immutable parts.
func (s *Segmented) mergeSegments(id int, srcs []*frozen, liveAt [][]bool) (merged *frozen, err error) {
	pour, err := s.newSegment(id)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			pour.idx.Close()
			if pour.spillDir != "" {
				os.RemoveAll(pour.spillDir)
			}
		}
	}()
	for i, f := range srcs {
		batch, err := f.liveDocs(liveAt[i])
		if err != nil {
			return nil, err
		}
		if err := pour.idx.AddBatch(batch); err != nil {
			return nil, err
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
		batch, err := f.liveDocs(f.live)
		if err != nil {
			return nil, err
		}
		if len(batch) > 0 { // a fully-garbage sealed segment is dropped
			groups = append(groups, batch)
		}
	}
	batch, err := s.mem.idx.liveDocs()
	if err != nil {
		return nil, err
	}
	return append(groups, batch), nil
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

// Close releases every segment's resources. Further mutations fail with
// ErrClosed; an in-flight Compact aborts at its swap point.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	firstErr := s.mem.idx.Close()
	for _, f := range s.sealed {
		if err := f.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// liveDocs reconstructs the full term-frequency map of every document of a
// memtable, merging in-memory postings with spilled ones. Documents are
// returned in DocID order for determinism. Stale spill records are skipped (see
// spillCurrent); among duplicate records for one (term, doc) the latest
// appended wins.
func (ix *Inverted) liveDocs() ([]BatchDoc, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	docs := make(map[DocID]map[Term]uint64, len(ix.docTerms))
	for doc, set := range ix.docTerms {
		docs[doc] = make(map[Term]uint64, len(set))
	}
	for term, pl := range ix.postings {
		for doc, tf := range pl {
			docs[doc][term] = tf
		}
	}
	if ix.spill != nil {
		records, err := ix.spill.readAll()
		if err != nil {
			return nil, err
		}
		for _, rec := range records {
			if ix.spillCurrent(rec) {
				docs[rec.Doc][rec.Term] = rec.Freq
			}
		}
	}
	out := make([]BatchDoc, 0, len(docs))
	for doc, terms := range docs {
		out = append(out, BatchDoc{Doc: doc, Terms: terms})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out, nil
}

// spillCurrent reports whether a spill-log record still describes its
// document: the document's latest version has the term (a removed document has
// no version; a superseded one may have lost the term), and no fresher
// in-memory posting shadows the record.
func (ix *Inverted) spillCurrent(rec spillRecord) bool {
	_, has := ix.docTerms[rec.Doc][rec.Term]
	_, inMem := ix.postings[rec.Term][rec.Doc]
	return has && !inMem
}
