package index

import (
	"cmp"
	"os"
	"slices"
)

// posting is one entry of a frozen term column.
type posting struct {
	ord uint32 // segment-local document ordinal
	tf  uint32 // term frequency, saturated by the facade (see clampTerms)
}

// frozen is the immutable columnar form of a sealed segment. Documents are
// numbered by dense segment-local ordinals in DocID order; every term owns one
// column of (ordinal, tf) postings sorted by ordinal; lengths and liveness are
// flat arrays indexed by ordinal. Ordinals are never reused, so a posting can
// only ever be attributed to the document version it was written for.
//
// Everything but live/liveN is read-only after freeze and may be read without
// a lock (Compact does, off the facade lock). live and liveN are written under
// Segmented.mu.Lock and read under Segmented.mu.RLock.
type frozen struct {
	id       int
	spillDir string // this segment's private spill dir ("" without champions)

	docs  []DocID  // ordinal -> DocID, ascending
	lens  []uint64 // ordinal -> total term frequency (BM25)
	live  []bool   // ordinal -> still the document's current version
	liveN int      // number of true entries in live
	cols  map[Term][]posting

	// Champion mode only: the consumed memtable's spill log, its per-term
	// spilled counts (document frequency adds them), and which log records
	// were still current at freeze — the log also holds postings of versions
	// that were superseded or removed while the segment was a memtable.
	spill        *spillLog
	spilled      map[Term]int
	spillCurrent []bool
}

// freeze consumes a memtable into its columnar form: it takes over the spill
// log and the spilled counts and keeps none of the index's other maps, so they
// are garbage once the caller drops seg, which must not be used afterwards.
// The caller has exclusive access to seg. All documents start live.
func freeze(seg *segment) (*frozen, error) {
	ix := seg.idx
	f := &frozen{
		id:       seg.id,
		spillDir: seg.spillDir,
		docs:     make([]DocID, 0, len(ix.docTerms)),
		cols:     make(map[Term][]posting, len(ix.postings)),
		spill:    ix.spill,
		spilled:  ix.spilled,
	}
	for doc := range ix.docTerms {
		f.docs = append(f.docs, doc)
	}
	slices.Sort(f.docs)
	ordOf := make(map[DocID]uint32, len(f.docs))
	f.lens = make([]uint64, len(f.docs))
	f.live = make([]bool, len(f.docs))
	for ord, doc := range f.docs {
		ordOf[doc] = uint32(ord)
		f.lens[ord] = ix.docLens[doc]
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

	if f.spill != nil {
		records, err := f.spill.readAll()
		if err != nil {
			return nil, err
		}
		f.spillCurrent = make([]bool, len(records))
		for i, rec := range records {
			f.spillCurrent[i] = ix.spillCurrent(rec)
		}
	}
	return f, nil
}

// ordOf returns doc's ordinal in this segment.
func (f *frozen) ordOf(doc DocID) (int, bool) {
	return slices.BinarySearch(f.docs, doc)
}

// liveDocs reconstructs the full term-frequency map of every document whose
// keep entry is set, merging the champion columns with the current spill
// records (among duplicates for one (term, doc) the latest appended wins).
// Documents are returned in DocID order, which is ordinal order.
func (f *frozen) liveDocs(keep []bool) ([]BatchDoc, error) {
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
	if f.spill != nil {
		records, err := f.spill.readAll()
		if err != nil {
			return nil, err
		}
		for i, rec := range records {
			if !f.spillCurrent[i] {
				continue
			}
			if ord, ok := f.ordOf(rec.Doc); ok && slot[ord] >= 0 {
				out[slot[ord]].Terms[rec.Term] = rec.Freq
			}
		}
	}
	return out, nil
}

// close releases the spill log, if any.
func (f *frozen) close() error {
	if f.spill == nil {
		return nil
	}
	return f.spill.close()
}

// retire closes a segment that left the facade and removes its spill dir.
func (f *frozen) retire() error {
	err := f.close()
	if f.spillDir != "" {
		os.RemoveAll(f.spillDir)
	}
	return err
}
