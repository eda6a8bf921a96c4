package index

import (
	"cmp"
	"slices"
)

// posting is one entry of a frozen term column.
type posting struct {
	ord uint32 // segment-local document ordinal
	tf  uint32 // term frequency, saturated by the facade (see clampTerms)
}

// frozen is the immutable columnar form of a sealed segment. Documents are
// numbered by dense segment-local ordinals in DocID order; every term owns one
// column of (ordinal, tf) postings sorted by ordinal; liveness is a flat array
// indexed by ordinal. Ordinals are never reused, so a posting can only ever be
// attributed to the document version it was written for.
//
// Everything but live/liveN is read-only after freeze and may be read without
// a lock (Compact does, off the facade lock). live and liveN are written under
// Segmented.mu.Lock and read under Segmented.mu.RLock.
type frozen struct {
	id int

	docs  []DocID // ordinal -> DocID, ascending
	live  []bool  // ordinal -> still the document's current version
	liveN int     // number of true entries in live
	cols  map[Term][]posting
}

// freeze consumes a memtable into its columnar form. It keeps none of the
// memtable's maps, so they are garbage once the caller drops seg, which must
// not be used afterwards. The caller has exclusive access to seg. All
// documents start live.
func freeze(seg *segment) *frozen {
	ix := seg.idx
	f := &frozen{
		id:   seg.id,
		docs: make([]DocID, 0, len(ix.docTerms)),
		cols: make(map[Term][]posting, len(ix.postings)),
	}
	for doc := range ix.docTerms {
		f.docs = append(f.docs, doc)
	}
	slices.Sort(f.docs)
	ordOf := make(map[DocID]uint32, len(f.docs))
	f.live = make([]bool, len(f.docs))
	for ord, doc := range f.docs {
		ordOf[doc] = uint32(ord)
		f.live[ord] = true
	}
	f.liveN = len(f.docs)

	total := 0
	for _, pl := range ix.postings {
		total += len(pl)
	}
	posts := make([]posting, 0, total) // one backing array for every column
	for term, pl := range ix.postings {
		start := len(posts)
		for doc, tf := range pl {
			posts = append(posts, posting{ord: ordOf[doc], tf: uint32(tf)})
		}
		col := posts[start:len(posts):len(posts)]
		slices.SortFunc(col, func(a, b posting) int { return cmp.Compare(a.ord, b.ord) })
		f.cols[term] = col
	}
	return f
}

// ordOf returns doc's ordinal in this segment.
func (f *frozen) ordOf(doc DocID) (int, bool) {
	return slices.BinarySearch(f.docs, doc)
}

// liveDocs reconstructs the full term-frequency map of every document whose
// keep entry is set. Documents are returned in DocID order, which is ordinal
// order.
func (f *frozen) liveDocs(keep []bool) []BatchDoc {
	nTerms := make([]int, len(f.docs))
	for _, col := range f.cols {
		for _, p := range col {
			nTerms[p.ord]++
		}
	}
	slot := make([]int, len(f.docs)) // ordinal -> index in out, -1 when dropped
	var out []BatchDoc
	for ord, doc := range f.docs {
		slot[ord] = -1
		if keep[ord] {
			slot[ord] = len(out)
			out = append(out, BatchDoc{Doc: doc, Terms: make(map[Term]uint64, nTerms[ord])})
		}
	}
	for term, col := range f.cols {
		for _, p := range col {
			if i := slot[p.ord]; i >= 0 {
				out[i].Terms[term] = uint64(p.tf)
			}
		}
	}
	return out
}
