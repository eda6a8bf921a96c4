// Package index implements the server-side retrieval substrate: a dynamic
// inverted index with TF-IDF ranked search, per-term champion posting lists,
// and disk spill with periodic merge for indexes that outgrow main memory
// (paper §VI). One index instance serves one modality of one repository.
//
// Index keys are opaque term strings — Sparse-DPE tokens for text, visual
// word ids for images — so the same structure works in the encrypted domain
// without modification, which is precisely the property MIE's design buys.
package index

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"mie/internal/text"
)

// DocID is a deterministic data-object identifier (the ID(d) the scheme is
// allowed to leak).
type DocID string

// Term is an opaque index key: a Sparse-DPE token, a visual-word id, etc.
type Term string

// Result is one ranked search hit.
type Result struct {
	Doc   DocID
	Score float64
}

// Ranking selects the term-weighting function used by Search.
type Ranking int

const (
	// RankTFIDF is the classic tf·idf weighting the paper's prototype uses.
	RankTFIDF Ranking = iota
	// RankBM25 is Okapi BM25 with standard parameters — the "more complex
	// functions could be used without loss of generality" option of §VI.
	RankBM25
)

// Options configures an Inverted index.
type Options struct {
	// ChampionSize, when positive, caps the number of postings kept in
	// memory per term to the top-ChampionSize by frequency ("champion
	// lists"); the remainder spills to disk. Zero disables spilling.
	ChampionSize int
	// SpillDir is where spilled postings are written. Required when
	// ChampionSize > 0.
	SpillDir string
	// Ranking selects the scoring function (default tf·idf).
	Ranking Ranking
}

// Inverted is a dynamic inverted index with ranked retrieval.
// It is safe for concurrent use.
type Inverted struct {
	mu        sync.RWMutex
	postings  map[Term]map[DocID]uint64
	docTerms  map[DocID]map[Term]struct{} // reverse map for O(|d|) removal
	docLens   map[DocID]uint64            // total term frequency per doc (BM25)
	totalLen  uint64
	docCount  int
	opts      Options
	spill     *spillLog
	spilled   map[Term]int // count of spilled postings per term
	tombstone map[DocID]struct{}
}

// New creates an index. With ChampionSize > 0 the spill directory is
// created eagerly so configuration errors surface at startup.
func New(opts Options) (*Inverted, error) {
	idx := &Inverted{
		postings:  make(map[Term]map[DocID]uint64),
		docTerms:  make(map[DocID]map[Term]struct{}),
		docLens:   make(map[DocID]uint64),
		opts:      opts,
		spilled:   make(map[Term]int),
		tombstone: make(map[DocID]struct{}),
	}
	if opts.ChampionSize > 0 {
		if opts.SpillDir == "" {
			return nil, errors.New("index: ChampionSize requires SpillDir")
		}
		if err := os.MkdirAll(opts.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("index: create spill dir: %w", err)
		}
		sl, err := openSpillLog(filepath.Join(opts.SpillDir, "postings.spill"))
		if err != nil {
			return nil, err
		}
		idx.spill = sl
	}
	return idx, nil
}

// Close releases the spill log, if any.
func (ix *Inverted) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.spill == nil {
		return nil
	}
	return ix.spill.close()
}

// DocCount returns the number of indexed documents.
func (ix *Inverted) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docCount
}

// TermCount returns the number of distinct terms currently in memory.
func (ix *Inverted) TermCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Has reports whether doc is indexed.
func (ix *Inverted) Has(doc DocID) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.docTerms[doc]
	return ok
}

// Add indexes (or re-indexes) a document given its term-frequency map.
// Re-adding an existing document replaces its previous postings, matching
// the paper's Update semantics (remove then add).
func (ix *Inverted) Add(doc DocID, terms map[Term]uint64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.addLocked(doc, terms)
}

// BatchDoc pairs one document with its term-frequency map for AddBatch.
type BatchDoc struct {
	Doc   DocID
	Terms map[Term]uint64
}

// AddBatch indexes a batch of documents under a single lock acquisition —
// the bulk path epoch rebuilds use (Train re-creating an index from a store
// snapshot). Semantically identical to calling Add once per entry, in order,
// minus len(docs)-1 lock round-trips. On error the batch stops at the
// offending document; earlier entries remain indexed.
func (ix *Inverted) AddBatch(docs []BatchDoc) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, d := range docs {
		if err := ix.addLocked(d.Doc, d.Terms); err != nil {
			return err
		}
	}
	return nil
}

func (ix *Inverted) addLocked(doc DocID, terms map[Term]uint64) error {
	if doc == "" {
		return errors.New("index: empty DocID")
	}
	if _, ok := ix.docTerms[doc]; ok {
		ix.removeLocked(doc)
	}
	delete(ix.tombstone, doc)
	set := make(map[Term]struct{}, len(terms))
	var docLen uint64
	for term, freq := range terms {
		if freq == 0 {
			continue
		}
		docLen += freq
		pl := ix.postings[term]
		if pl == nil {
			pl = make(map[DocID]uint64)
			ix.postings[term] = pl
		}
		pl[doc] = freq
		set[term] = struct{}{}
		if ix.opts.ChampionSize > 0 && len(pl) > ix.opts.ChampionSize {
			if err := ix.evictLocked(term, pl); err != nil {
				return err
			}
		}
	}
	ix.docTerms[doc] = set
	ix.docLens[doc] = docLen
	ix.totalLen += docLen
	ix.docCount++
	return nil
}

// evictLocked spills the lowest-frequency posting of term to disk, keeping
// the in-memory list a champion list of the top entries.
func (ix *Inverted) evictLocked(term Term, pl map[DocID]uint64) error {
	var victim DocID
	var vf uint64
	first := true
	for d, f := range pl {
		if first || f < vf || (f == vf && d < victim) {
			victim, vf, first = d, f, false
		}
	}
	if err := ix.spill.append(spillRecord{Term: term, Doc: victim, Freq: vf}); err != nil {
		return err
	}
	delete(pl, victim)
	ix.spilled[term]++
	// The victim doc still references the term; docTerms stays as-is so
	// removal can tombstone spilled postings.
	return nil
}

// Remove deletes a document and all its postings. Removing an unknown doc is
// a no-op, mirroring CLOUD.Remove in Algorithm 8.
func (ix *Inverted) Remove(doc DocID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(doc)
}

func (ix *Inverted) removeLocked(doc DocID) {
	set, ok := ix.docTerms[doc]
	if !ok {
		return
	}
	for term := range set {
		if pl := ix.postings[term]; pl != nil {
			delete(pl, doc)
			if len(pl) == 0 && ix.spilled[term] == 0 {
				delete(ix.postings, term)
			}
		}
	}
	delete(ix.docTerms, doc)
	ix.totalLen -= ix.docLens[doc]
	delete(ix.docLens, doc)
	ix.docCount--
	if ix.spill != nil {
		// Spilled postings for this doc become stale; tombstone them until
		// the next merge compacts the log.
		ix.tombstone[doc] = struct{}{}
	}
}

// PostingsLen returns the number of in-memory postings for a term.
func (ix *Inverted) PostingsLen(term Term) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings[term])
}

// SpilledLen returns the number of postings for term currently on disk
// (including any that are tombstoned but not yet merged).
func (ix *Inverted) SpilledLen(term Term) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.spilled[term]
}

// docFreq returns the total document frequency of a term (memory + disk).
func (ix *Inverted) docFreqLocked(term Term) int {
	return len(ix.postings[term]) + ix.spilled[term]
}

// Search ranks documents against the query term-frequency map with TF-IDF
// and returns the top k. Only champion (in-memory) postings are scanned,
// which is the scalability trade the paper makes: champions hold the top
// ranked objects per term, so precision is preserved.
func (ix *Inverted) Search(query map[Term]uint64, k int) []Result {
	if k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var avgLen float64
	if ix.docCount > 0 {
		avgLen = float64(ix.totalLen) / float64(ix.docCount)
	}
	scores := make(map[DocID]float64)
	for _, term := range sortedTerms(query) {
		pl := ix.postings[term]
		if len(pl) == 0 && ix.spilled[term] == 0 {
			continue
		}
		qf := float64(query[term])
		df := ix.docFreqLocked(term)
		for doc, tf := range pl {
			var w float64
			if ix.opts.Ranking == RankBM25 {
				w = text.BM25(tf, ix.docCount, df, float64(ix.docLens[doc]), avgLen, 0, 0)
			} else {
				w = text.TFIDF(tf, ix.docCount, df)
			}
			scores[doc] += qf * w
		}
	}
	return TopK(scores, k)
}

// Merge compacts the spill log: postings of removed documents are dropped
// and the survivors are reloaded into memory (then re-evicted down to the
// champion bound). This is the periodic merge of §VI.
func (ix *Inverted) Merge() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.spill == nil {
		return nil
	}
	records, err := ix.spill.readAll()
	if err != nil {
		return err
	}
	if err := ix.spill.reset(); err != nil {
		return err
	}
	ix.spilled = make(map[Term]int)
	for _, rec := range records {
		if _, dead := ix.tombstone[rec.Doc]; dead {
			continue
		}
		// A fresher in-memory posting (from a re-add) wins over the spilled one.
		pl := ix.postings[rec.Term]
		if pl == nil {
			pl = make(map[DocID]uint64)
			ix.postings[rec.Term] = pl
		}
		if _, ok := pl[rec.Doc]; ok {
			continue
		}
		pl[rec.Doc] = rec.Freq
		if ix.opts.ChampionSize > 0 && len(pl) > ix.opts.ChampionSize {
			if err := ix.evictLocked(rec.Term, pl); err != nil {
				return err
			}
		}
	}
	ix.tombstone = make(map[DocID]struct{})
	return nil
}

// sortedTerms returns the query's terms in ascending order. Every ranked scan
// walks them in this order, so a document's score is one float sum with one
// order of additions: the same query always returns the same bits.
func sortedTerms(query map[Term]uint64) []Term {
	terms := make([]Term, 0, len(query))
	for term := range query {
		terms = append(terms, term)
	}
	slices.Sort(terms)
	return terms
}

// TopK selects the k highest-scoring documents from a score map, breaking
// score ties by DocID for determinism. Non-positive scores are dropped.
// Exported so every ranked-scan path — index lookups, the engines' linear
// fallbacks, the ANN re-rank — truncates through the same selection with the
// same tie-break.
func TopK(scores map[DocID]float64, k int) []Result {
	top := NewTopKHeap(k)
	for doc, s := range scores {
		if s > 0 && top.admits(s) {
			top.Offer(Result{Doc: doc, Score: s})
		}
	}
	return top.Results()
}

// TopKHeap keeps the k best results offered to it in a bounded min-heap
// (O(n log k), no full materialize-and-sort). The order is total — score, then
// DocID — so the outcome does not depend on the order of the offers.
type TopKHeap struct {
	k int
	h []Result // min-heap under less: h[0] is the weakest kept result
}

// NewTopKHeap returns a selector for the k best results (none when k <= 0).
func NewTopKHeap(k int) *TopKHeap {
	return &TopKHeap{k: k}
}

// admits reports whether a result with this score could enter the heap. It is
// the cheap pre-check that lets a scan skip a candidate without touching its
// DocID: false means Offer would certainly drop it.
func (t *TopKHeap) admits(score float64) bool {
	return len(t.h) < t.k || (len(t.h) > 0 && score >= t.h[0].Score)
}

// Offer considers one result.
func (t *TopKHeap) Offer(r Result) {
	if len(t.h) < t.k {
		t.h = append(t.h, r)
		for i := len(t.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !less(t.h[i], t.h[parent]) {
				break
			}
			t.h[i], t.h[parent] = t.h[parent], t.h[i]
			i = parent
		}
		return
	}
	if len(t.h) == 0 || !less(t.h[0], r) {
		return
	}
	t.h[0] = r
	t.siftDown(len(t.h))
}

// siftDown restores the heap property of h[:n] after h[0] changed.
func (t *TopKHeap) siftDown(n int) {
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && less(t.h[r], t.h[child]) {
			child = r
		}
		if !less(t.h[child], t.h[i]) {
			return
		}
		t.h[i], t.h[child] = t.h[child], t.h[i]
		i = child
	}
}

// Results returns the kept results best first (the order of SortResults) and
// empties the heap. The slice is the caller's.
func (t *TopKHeap) Results() []Result {
	// Heapsort in place: moving the weakest to the end, n times, leaves the
	// slice descending.
	for n := len(t.h) - 1; n > 0; n-- {
		t.h[0], t.h[n] = t.h[n], t.h[0]
		t.siftDown(n)
	}
	out := t.h
	if out == nil {
		out = []Result{}
	}
	t.h = nil
	return out
}

// less orders results ascending: by score, then by DocID (reversed so that
// lexicographically smaller ids rank higher on equal scores).
func less(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// SortResults orders results descending by score (ties by DocID ascending),
// the canonical presentation order.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return less(rs[j], rs[i]) })
}

// spillRecord is one on-disk posting.
type spillRecord struct {
	Term Term
	Doc  DocID
	Freq uint64
}

// spillLog is an append-only gob log of spilled postings.
type spillLog struct {
	path string
	f    *os.File
	enc  *gob.Encoder
}

func openSpillLog(path string) (*spillLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("index: open spill log: %w", err)
	}
	return &spillLog{path: path, f: f, enc: gob.NewEncoder(f)}, nil
}

func (sl *spillLog) append(rec spillRecord) error {
	if err := sl.enc.Encode(rec); err != nil {
		return fmt.Errorf("index: spill append: %w", err)
	}
	return nil
}

func (sl *spillLog) readAll() ([]spillRecord, error) {
	f, err := os.Open(sl.path)
	if err != nil {
		return nil, fmt.Errorf("index: open spill for read: %w", err)
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	var out []spillRecord
	for {
		var rec spillRecord
		if err := dec.Decode(&rec); err != nil {
			break // EOF or truncated tail: everything decoded so far is valid
		}
		out = append(out, rec)
	}
	return out, nil
}

func (sl *spillLog) reset() error {
	if err := sl.f.Close(); err != nil {
		return fmt.Errorf("index: close spill: %w", err)
	}
	f, err := os.OpenFile(sl.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("index: reset spill: %w", err)
	}
	sl.f = f
	sl.enc = gob.NewEncoder(f)
	return nil
}

func (sl *spillLog) close() error {
	return sl.f.Close()
}
