package index

import "math"

// candidate is one scored document awaiting selection. It names the document
// by its ordinal in an id table rather than by DocID, so a buffer of
// candidates holds no pointers: the garbage collector never scans it and
// filling it costs no write barrier.
type candidate struct {
	score float64
	src   uint32 // index of the document's table in selector.tables
	ord   uint32 // the document's position in that table
}

// idTable maps one candidate source's ordinals to DocIDs. A sealed segment's
// table is its docs column, whose ordinal order is DocID order (sorted), so
// a tie inside it compares integers. Any other source — the memtable, a score
// map, fusion's tallies — fills its table as candidates are admitted, in no
// order.
type idTable struct {
	ids    []DocID
	sorted bool
}

// selector keeps the depth best candidates offered to it under the ranking
// order: score descending, then DocID ascending. It is the one top-k
// selection of the package: Lookup, TopK and fusion all rank through it.
//
// Candidates collect in a buffer. When the buffer reaches 2·depth, a
// select-nth keeps the best depth and makes the worst of them the bar: from
// then on a candidate scoring below it is dropped on one float compare, and
// one tying it must rank ahead of it to enter. The buffer grows with the
// candidates actually held, never with depth, so a huge depth costs nothing
// until candidates arrive. The order is total, so the outcome does not depend
// on the order of offers.
type selector struct {
	depth  int
	limit  int       // buffer length that triggers a prune: 2·depth, saturated
	floor  float64   // a score below it cannot rank; the bar's score once set
	bar    candidate // the worst candidate kept by the last prune
	barSet bool
	buf    []candidate
	tables []idTable
}

// reset readies s for a new selection of the depth best, keeping the buffer's
// capacity. The first floor, 0, drops every non-positive score; with no depth
// at all it is NaN, which admits nothing.
func (s *selector) reset(depth int) {
	s.depth = depth
	s.limit = math.MaxInt
	if depth <= math.MaxInt/2 {
		s.limit = 2 * depth
	}
	s.floor = 0
	if depth <= 0 {
		s.floor = math.NaN()
	}
	s.barSet = false
	s.buf = s.buf[:0]
	clear(s.tables)
	s.tables = s.tables[:0]
}

// table registers a candidate source and returns its index.
func (s *selector) table(ids []DocID, sorted bool) uint32 {
	s.tables = append(s.tables, idTable{ids: ids, sorted: sorted})
	return uint32(len(s.tables) - 1)
}

// offer considers the document at ordinal ord of the sorted table src. The
// floor test is all a scan pays inline for a candidate that cannot rank.
func (s *selector) offer(score float64, src, ord uint32) {
	if score >= s.floor {
		s.admit(score, src, ord)
	}
}

// admit pushes a candidate that reached the floor, unless it ties the bar (or
// the first floor, 0) and does not rank ahead of it.
func (s *selector) admit(score float64, src, ord uint32) {
	if score == s.floor && (!s.barSet || !s.beatsBar(src, ord)) {
		return
	}
	s.push(candidate{score: score, src: src, ord: ord})
}

// beatsBar breaks a tie with the bar for the document at ordinal ord of the
// sorted table src: on one integer compare when the bar comes from the same
// segment.
func (s *selector) beatsBar(src, ord uint32) bool {
	if src == s.bar.src {
		return ord < s.bar.ord
	}
	return s.tables[src].ids[ord] < s.tables[s.bar.src].ids[s.bar.ord]
}

// offerID considers doc, entering it in the unsorted table src only if it is
// admitted.
func (s *selector) offerID(src uint32, doc DocID, score float64) {
	if score >= s.floor {
		s.admitID(src, doc, score)
	}
}

// admitID is admit for a document named by its DocID.
func (s *selector) admitID(src uint32, doc DocID, score float64) {
	if score == s.floor && (!s.barSet || doc >= s.tables[s.bar.src].ids[s.bar.ord]) {
		return
	}
	t := &s.tables[src]
	t.ids = append(t.ids, doc)
	s.push(candidate{score: score, src: src, ord: uint32(len(t.ids) - 1)})
}

func (s *selector) push(c candidate) {
	s.buf = append(s.buf, c)
	if len(s.buf) == s.limit {
		s.selectBest()
		s.buf = s.buf[:s.depth]
		s.bar, s.barSet = s.buf[s.depth-1], true
		s.floor = s.bar.score
	}
}

// results returns the selected documents best first; the slice is the
// caller's.
func (s *selector) results() []Result {
	if len(s.buf) > s.depth {
		s.selectBest()
		s.buf = s.buf[:s.depth]
	}
	s.sort(0, len(s.buf)-1)
	out := make([]Result, len(s.buf))
	for i, c := range s.buf {
		out[i] = Result{Doc: s.tables[c.src].ids[c.ord], Score: c.score}
	}
	return out
}

// before reports whether a ranks ahead of b. DocID strings are read only for
// a score tie between two sources, or inside an unsorted one.
func (s *selector) before(a, b candidate) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.src == b.src && s.tables[a.src].sorted {
		return a.ord < b.ord
	}
	return s.tables[a.src].ids[a.ord] < s.tables[b.src].ids[b.ord]
}

// partition reorders buf[lo:hi+1] around a median-of-three pivot (Hoare's
// scheme) and returns i > j: buf[lo:j+1] ranks no later than the pivot,
// buf[i:hi+1] no earlier, and whatever lies between is the pivot itself.
func (s *selector) partition(lo, hi int) (i, j int) {
	buf := s.buf
	mid := lo + (hi-lo)/2
	if s.before(buf[mid], buf[lo]) {
		buf[mid], buf[lo] = buf[lo], buf[mid]
	}
	if s.before(buf[hi], buf[lo]) {
		buf[hi], buf[lo] = buf[lo], buf[hi]
	}
	if s.before(buf[hi], buf[mid]) {
		buf[hi], buf[mid] = buf[mid], buf[hi]
	}
	pivot := buf[mid]
	i, j = lo, hi
	for i <= j {
		for s.before(buf[i], pivot) {
			i++
		}
		for s.before(pivot, buf[j]) {
			j--
		}
		if i <= j {
			buf[i], buf[j] = buf[j], buf[i]
			i++
			j--
		}
	}
	return i, j
}

// selectBest reorders a buffer longer than depth so that buf[:depth] holds its
// depth best candidates, the worst of them at buf[depth-1]: Wirth's FIND,
// expected linear time.
func (s *selector) selectBest() {
	k := s.depth - 1
	for lo, hi := 0, len(s.buf)-1; lo < hi; {
		i, j := s.partition(lo, hi)
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// sort orders buf[lo:hi+1] best first: quicksort on partition, insertion sort
// for short ranges.
func (s *selector) sort(lo, hi int) {
	for hi-lo > 12 {
		i, j := s.partition(lo, hi)
		if j-lo < hi-i { // recurse into the shorter side
			s.sort(lo, j)
			lo = i
		} else {
			s.sort(i, hi)
			hi = j
		}
	}
	buf := s.buf
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && s.before(buf[j], buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
}

// Top selects the k best of a stream of scored documents, ties by DocID
// ascending; non-positive scores are dropped. It is the selector for callers
// that hold their candidates by DocID — TopK's score maps, fusion's tallies.
type Top struct {
	sel   selector
	table [1]idTable
}

// NewTop returns a selection of the k best (none when k <= 0). n is how many
// offers to expect; the buffer starts at the smaller of n and 2·k, so a huge
// k allocates nothing the offers do not fill.
func NewTop(k, n int) *Top {
	t := &Top{}
	t.sel.tables = t.table[:0]
	t.sel.reset(k)
	n = max(0, min(n, t.sel.limit))
	t.sel.buf = make([]candidate, 0, n)
	t.sel.table(make([]DocID, 0, n), false)
	return t
}

// Offer considers one scored document.
func (t *Top) Offer(doc DocID, score float64) { t.sel.offerID(0, doc, score) }

// Results returns the k best offers best first, as a slice that is the
// caller's.
func (t *Top) Results() []Result { return t.sel.results() }
