// Package index implements the server-side retrieval substrate: a dynamic
// inverted index over in-memory postings with TF-IDF ranked search (paper
// §VI). One index instance serves one modality of one repository.
//
// Index keys are opaque term strings — Sparse-DPE tokens for text, visual
// word ids for images — so the same structure works in the encrypted domain
// without modification, which is precisely the property MIE's design buys.
package index

import (
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

// Inverted is a dynamic inverted index with TF-IDF ranked retrieval.
// It is safe for concurrent use.
type Inverted struct {
	mu       sync.RWMutex
	postings map[Term]map[DocID]uint64
	docTerms map[DocID]map[Term]struct{} // reverse map for O(|d|) removal
}

// New creates an empty index.
func New() *Inverted {
	return &Inverted{
		postings: make(map[Term]map[DocID]uint64),
		docTerms: make(map[DocID]map[Term]struct{}),
	}
}

// DocCount returns the number of indexed documents.
func (ix *Inverted) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docTerms)
}

// TermCount returns the number of distinct terms.
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
// the paper's Update semantics (remove then add). The index takes any id,
// the empty one included: an object id is checked where it enters the
// program, not here.
func (ix *Inverted) Add(doc DocID, terms map[Term]uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(doc, terms)
}

// BatchDoc pairs one document with its term-frequency map, the unit of the
// bulk paths (Segmented.AddBatch, snapshot segments).
type BatchDoc struct {
	Doc   DocID
	Terms map[Term]uint64
}

func (ix *Inverted) addLocked(doc DocID, terms map[Term]uint64) {
	ix.removeLocked(doc)
	set := make(map[Term]struct{}, len(terms))
	for term, freq := range terms {
		if freq == 0 {
			continue
		}
		pl := ix.postings[term]
		if pl == nil {
			pl = make(map[DocID]uint64)
			ix.postings[term] = pl
		}
		pl[doc] = freq
		set[term] = struct{}{}
	}
	ix.docTerms[doc] = set
}

// Remove deletes a document and all its postings. Removing an unknown doc is
// a no-op, mirroring CLOUD.Remove in Algorithm 8.
func (ix *Inverted) Remove(doc DocID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(doc)
}

func (ix *Inverted) removeLocked(doc DocID) {
	for term := range ix.docTerms[doc] {
		pl := ix.postings[term]
		delete(pl, doc)
		if len(pl) == 0 {
			delete(ix.postings, term)
		}
	}
	delete(ix.docTerms, doc)
}

// Search ranks documents against the query term-frequency map with TF-IDF
// and returns the top k.
func (ix *Inverted) Search(query map[Term]uint64, k int) []Result {
	if k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.docTerms)
	scores := make(map[DocID]float64)
	for _, term := range sortedTerms(query) {
		pl := ix.postings[term]
		qf := float64(query[term])
		for doc, tf := range pl {
			scores[doc] += qf * text.TFIDF(tf, n, len(pl))
		}
	}
	return TopK(scores, k)
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
// scans — truncates through the same selection with the same tie-break.
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
