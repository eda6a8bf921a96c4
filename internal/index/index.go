// Package index implements the server-side retrieval substrate: a dynamic
// inverted index over in-memory postings with TF-IDF ranked search (paper
// §VI). One index instance serves one modality of one repository.
//
// Index keys are opaque term strings — Sparse-DPE tokens for text, visual
// word ids for images — so the same structure works in the encrypted domain
// without modification, which is precisely the property MIE's design buys.
package index

import (
	"cmp"
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

// Search ranks documents against the query with TF-IDF and returns the top
// k. query must be in strictly ascending Term order (see QueryTerm).
func (ix *Inverted) Search(query []QueryTerm, k int) []Result {
	if k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.docTerms)
	scores := make(map[DocID]float64)
	for _, qt := range query {
		pl := ix.postings[qt.Term]
		for doc, tf := range pl {
			scores[doc] += float64(qt.Freq) * text.TFIDF(tf, n, len(pl))
		}
	}
	return TopK(scores, k)
}

// QueryTerm is one term of a query with its query-side frequency. A query is
// a []QueryTerm in strictly ascending Term order, each term once: every
// ranked scan walks it in that order, so a document's score is one float sum
// with one order of additions and the same query always returns the same
// bits. Producers build the order where the terms are made (the wire codec,
// the engines); the index does not re-sort.
type QueryTerm struct {
	Term Term
	Freq uint64
}

// SortedTerms returns a term-frequency map as a query: its entries in
// ascending Term order. It is for callers that hold a map; the query paths
// build their terms in order.
func SortedTerms(m map[Term]uint64) []QueryTerm {
	qts := make([]QueryTerm, 0, len(m))
	for term, freq := range m {
		qts = append(qts, QueryTerm{Term: term, Freq: freq})
	}
	slices.SortFunc(qts, func(a, b QueryTerm) int { return cmp.Compare(a.Term, b.Term) })
	return qts
}

// queryTerm is one query term's share of a Segmented lookup: its query-side
// frequency and the idf its document frequency across all segments implies
// (hoisted out of the posting loops).
type queryTerm struct {
	qf  float64
	idf float64
}

// TopK selects the k highest-scoring documents from a score map, breaking
// score ties by DocID for determinism. Non-positive scores are dropped.
// Exported so every ranked-scan path — index lookups, the engines' linear
// scans — truncates through the same selection with the same tie-break.
func TopK(scores map[DocID]float64, k int) []Result {
	top := NewTop(k, len(scores))
	for doc, s := range scores {
		top.Offer(doc, s)
	}
	return top.Results()
}

// SortResults orders results descending by score (ties by DocID ascending),
// the canonical presentation order.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].Doc < rs[j].Doc
	})
}
