package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mie/internal/text"
)

// --- the naive reference ---------------------------------------------------

// refSearch is the linear-scan scorer every Lookup must equal bit for bit:
// one pass per live document, weights summed in sorted-term order, full sort,
// cut at k.
func refSearch(live map[DocID]map[Term]uint64, query map[Term]uint64, k int) []Result {
	terms := make([]Term, 0, len(query))
	for term := range query {
		terms = append(terms, term)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	df := make(map[Term]int, len(terms))
	for _, term := range terms {
		for _, have := range live {
			if have[term] > 0 {
				df[term]++
			}
		}
	}
	out := []Result{}
	for doc, have := range live {
		var score float64
		for _, term := range terms {
			if tf := have[term]; tf > 0 {
				score += float64(query[term]) * text.TFIDF(tf, len(live), df[term])
			}
		}
		if score > 0 {
			out = append(out, Result{Doc: doc, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sameResults reports whether two rankings agree in ids and score bits.
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// --- the model of the facade -----------------------------------------------

// segModel tracks what a Segmented must hold after a trace of operations: the
// live documents (term frequencies saturated as the facade saturates them),
// which of them sit in the memtable, and the tombstoned versions awaiting
// compaction.
type segModel struct {
	cap   int
	live  map[DocID]map[Term]uint64
	inMem map[DocID]bool
	dead  int
}

func newSegModel(memtableCap int) *segModel {
	return &segModel{cap: memtableCap, live: map[DocID]map[Term]uint64{}, inMem: map[DocID]bool{}}
}

func (m *segModel) remove(doc DocID) {
	if _, ok := m.live[doc]; !ok {
		return
	}
	if m.inMem[doc] {
		delete(m.inMem, doc)
	} else {
		m.dead++
	}
	delete(m.live, doc)
}

func (m *segModel) add(doc DocID, terms map[Term]uint64) {
	m.remove(doc)
	kept := make(map[Term]uint64, len(terms))
	for term, tf := range terms {
		if tf > 0 {
			kept[term] = min(tf, math.MaxUint32)
		}
	}
	m.live[doc] = kept
	m.inMem[doc] = true
	if m.cap > 0 && len(m.inMem) >= m.cap {
		m.seal()
	}
}

func (m *segModel) seal() { m.inMem = map[DocID]bool{} }

// compacted: a compaction with no concurrent writer reclaims every tombstone.
func (m *segModel) compacted(hadSealed bool) {
	if hadSealed {
		m.dead = 0
	}
}

// reloaded: SegmentBatches -> LoadSegments drops all garbage and keeps the
// memtable's contents in the memtable.
func (m *segModel) reloaded() { m.dead = 0 }

// --- seeded traces -----------------------------------------------------------

const (
	traceDocs  = 40
	traceVocab = 24
	lowVocab   = 3 // the low-entropy mode's vocabulary
)

// traceReader decodes an operation trace from bytes, so the seeded generator
// and the fuzzer drive the same interpreter. Reads past the end yield zeros.
// In low-entropy mode documents draw from a three-term vocabulary with term
// frequencies 1 and 2, so most documents tie with many others and the ranking
// rests on the DocID tie-break across segments and the memtable.
type traceReader struct {
	data       []byte
	pos        int
	lowEntropy bool
}

func (r *traceReader) done() bool { return r.pos >= len(r.data) }

func (r *traceReader) next() int {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

func (r *traceReader) terms() map[Term]uint64 {
	if r.lowEntropy {
		n := 1 + r.next()%lowVocab
		terms := make(map[Term]uint64, n)
		for i := 0; i < n; i++ {
			terms[Term(fmt.Sprintf("t%02d", r.next()%lowVocab))] = uint64(1 + r.next()%2)
		}
		return terms
	}
	n := 1 + r.next()%6
	terms := make(map[Term]uint64, n)
	for i := 0; i < n; i++ {
		term := Term(fmt.Sprintf("t%02d", r.next()%traceVocab))
		switch tf := r.next(); {
		case tf == 255:
			terms[term] = 1 << 40 // hostile: wider than a column stores
		case tf == 254:
			terms[term] = 0 // dropped by the index
		default:
			terms[term] = uint64(1 + tf%5)
		}
	}
	return terms
}

// seededTrace generates a trace of the given length from a seed.
func seededTrace(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 0, steps*8)
	for len(data) < steps*8 {
		data = append(data, byte(rng.Intn(256)))
	}
	return data
}

// runTrace interprets data as Add / re-Add / Remove / Seal / Compact / reload
// operations against a Segmented with the given memtable cap and its model,
// and after every step checks Lookup against the reference (exactly), the
// reconstructed contents against the model (exactly) and Stats against the
// model. In low-entropy mode the queries draw from the same three terms and
// every one is checked at depths 1, 2, live−1, live and live+5. It returns how
// many steps ended with at least three sealed segments, a non-empty memtable
// and a tombstone: the layout where ties cross the most sources.
func runTrace(t *testing.T, memCap int, data []byte, lowEntropy bool) (mixed int) {
	t.Helper()
	open := func() *Segmented { return NewSegmented(SegmentedOptions{MemtableCap: memCap}) }
	s := open()
	defer func() { s.Close() }()
	m := newSegModel(memCap)
	r := &traceReader{data: data, lowEntropy: lowEntropy}

	for step := 0; !r.done(); step++ {
		var desc string
		switch op := r.next() % 16; {
		case op < 8:
			doc := DocID(fmt.Sprintf("d%02d", r.next()%traceDocs))
			terms := r.terms()
			desc = fmt.Sprintf("add %s %v", doc, terms)
			s.Add(doc, terms)
			m.add(doc, terms)
		case op < 11:
			doc := DocID(fmt.Sprintf("d%02d", r.next()%(traceDocs+8))) // sometimes unknown
			desc = fmt.Sprintf("remove %s", doc)
			s.Remove(doc)
			m.remove(doc)
		case op < 13:
			desc = "seal"
			s.Seal()
			m.seal()
		case op < 15:
			desc = "compact"
			hadSealed := s.Stats().SealedSegments > 0
			s.Compact()
			m.compacted(hadSealed)
		default:
			desc = "reload"
			groups, err := s.SegmentBatches()
			if err != nil {
				t.Fatalf("step %d SegmentBatches: %v", step, err)
			}
			restored := open()
			if err := restored.LoadSegments(groups); err != nil {
				t.Fatalf("step %d LoadSegments: %v", step, err)
			}
			s.Close()
			s = restored
			m.reloaded()
		}

		// Contents: every live document's full term map survives, whichever
		// segment holds it.
		groups, err := s.SegmentBatches()
		if err != nil {
			t.Fatalf("step %d (%s): SegmentBatches: %v", step, desc, err)
		}
		got := map[DocID]map[Term]uint64{}
		for _, g := range groups {
			for _, d := range g {
				if _, dup := got[d.Doc]; dup {
					t.Fatalf("step %d (%s): %s in two segments", step, desc, d.Doc)
				}
				got[d.Doc] = d.Terms
			}
		}
		if !equalDocs(got, m.live) {
			t.Fatalf("step %d (%s): contents\ngot  %v\nwant %v", step, desc, got, m.live)
		}

		st := s.Stats()
		if st.LiveDocs != len(m.live) || st.DeadDocs != m.dead || st.MemtableDocs != len(m.inMem) {
			t.Fatalf("step %d (%s): stats %+v, want live %d dead %d memtable %d", step, desc, st, len(m.live), m.dead, len(m.inMem))
		}
		if st.SealedSegments >= 3 && st.MemtableDocs > 0 && st.DeadDocs > 0 {
			mixed++
		}

		qrng := rand.New(rand.NewSource(int64(step)))
		for q := 0; q < 3; q++ {
			query := make(map[Term]uint64)
			var depths []int
			if lowEntropy {
				for i := 1 + qrng.Intn(lowVocab); i > 0; i-- {
					query[Term(fmt.Sprintf("t%02d", qrng.Intn(lowVocab)))] = uint64(1 + qrng.Intn(2))
				}
				live := len(m.live)
				depths = []int{1, 2, live - 1, live, live + 5}
			} else {
				for i := 1 + qrng.Intn(4); i > 0; i-- {
					query[Term(fmt.Sprintf("t%02d", qrng.Intn(traceVocab+2)))] = uint64(1 + qrng.Intn(3))
				}
				depths = []int{[]int{1, 3, 10, 100}[qrng.Intn(4)]}
			}
			for _, k := range depths {
				if k < 1 {
					continue
				}
				want := refSearch(m.live, query, k)
				got := s.Lookup(SortedTerms(query), k)
				if !sameResults(got, want) {
					t.Fatalf("step %d (%s): Lookup(%v, %d)\ngot  %v\nwant %v", step, desc, query, k, got, want)
				}
				// A lone modality asks for k where fusion asks for 10·k:
				// the shallow lookup must be the deep one's first k, and
				// neither may name a document twice.
				deep := s.Lookup(SortedTerms(query), 10*k)
				if !sameResults(got, deep[:min(k, len(deep))]) {
					t.Fatalf("step %d (%s): Lookup(%v, %d) is not the first %d of depth %d\ngot  %v\ndeep %v", step, desc, query, k, k, 10*k, got, deep)
				}
				if doc, dup := repeated(deep); dup {
					t.Fatalf("step %d (%s): Lookup(%v, %d) names %s twice: %v", step, desc, query, 10*k, doc, deep)
				}
			}
		}
	}
	return mixed
}

// repeated returns a document a ranking names more than once, if any.
func repeated(rs []Result) (DocID, bool) {
	seen := make(map[DocID]bool, len(rs))
	for _, r := range rs {
		if seen[r.Doc] {
			return r.Doc, true
		}
		seen[r.Doc] = true
	}
	return "", false
}

func equalDocs(a, b map[DocID]map[Term]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for doc, ta := range a {
		tb, ok := b[doc]
		if !ok || len(ta) != len(tb) {
			return false
		}
		for term, tf := range ta {
			if tb[term] != tf {
				return false
			}
		}
	}
	return true
}

func TestSegmentedMatchesReferenceOnSeededTraces(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runTrace(t, 3+int(seed)*2, seededTrace(seed, 150), false)
		})
	}
}

// The low-entropy traces: documents and queries over three terms, so scores
// tie in bulk, and each trace must reach the layout where a tie crosses three
// sealed segments, the memtable and tombstoned versions.
func TestSegmentedMatchesReferenceOnTieHeavyTraces(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if mixed := runTrace(t, 4, seededTrace(100+seed, 200), true); mixed == 0 {
				t.Fatal("the trace never held three sealed segments, a memtable and a tombstone at once")
			}
		})
	}
}

// FuzzSegmentedOps lets the fuzzer write the trace: the high six bits of the
// first byte pick the memtable cap, the rest are operations. The low two bits
// once chose a ranking and champion mode; they are ignored, so the checked-in
// corpus stays valid. A first byte of lowEntropyMark or above selects the
// low-entropy mode; no checked-in input and none of the first four seeds
// starts that high, so they all replay as they always have.
func FuzzSegmentedOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(append([]byte{byte(seed * 37)}, seededTrace(seed, 20)...))
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(append([]byte{lowEntropyMark | byte(seed<<2)}, seededTrace(100+seed, 40)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<10 {
			return
		}
		runTrace(t, 2+int(data[0]>>2)%7, data[1:], data[0] >= lowEntropyMark)
	})
}

// lowEntropyMark is the lowest first byte of a low-entropy fuzz input.
const lowEntropyMark = 0xe0

// --- hostile term frequencies ----------------------------------------------

// A term frequency wider than a column saturates once, at the facade, so every
// stage of a segment's life scores and stores the same value.
func TestSegmentedSaturatesHostileTermFrequency(t *testing.T) {
	s := NewSegmented(SegmentedOptions{MemtableCap: -1})
	defer s.Close()
	hostile := map[Term]uint64{"big": 1 << 40, "small": 2}
	s.Add("evil", hostile)
	for i := 0; i < 5; i++ {
		s.Add(DocID(fmt.Sprintf("d%d", i)), map[Term]uint64{"small": uint64(i + 1), "other": 1})
	}
	if hostile["big"] != 1<<40 {
		t.Fatal("Add modified the caller's map")
	}
	m := newSegModel(-1)
	m.add("evil", hostile)
	for i := 0; i < 5; i++ {
		m.add(DocID(fmt.Sprintf("d%d", i)), map[Term]uint64{"small": uint64(i + 1), "other": 1})
	}
	query := map[Term]uint64{"big": 3, "small": 1}
	want := refSearch(m.live, query, 10)
	if want[0].Doc != "evil" {
		t.Fatalf("reference does not rank the hostile doc first: %v", want)
	}
	check := func(stage string, s *Segmented) {
		t.Helper()
		if got := s.Lookup(SortedTerms(query), 10); !sameResults(got, want) {
			t.Fatalf("%s: Lookup\ngot  %v\nwant %v", stage, got, want)
		}
		groups, err := s.SegmentBatches()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			for _, d := range g {
				if d.Doc == "evil" && d.Terms["big"] != math.MaxUint32 {
					t.Fatalf("%s: stored tf %d, want %d", stage, d.Terms["big"], uint64(math.MaxUint32))
				}
			}
		}
	}
	check("memtable", s)
	s.Seal()
	check("sealed", s)
	s.Add("late", map[Term]uint64{"other": 1})
	s.Remove("late")
	s.Seal()
	s.Compact()
	check("compacted", s)
	groups, err := s.SegmentBatches()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSegmented(SegmentedOptions{MemtableCap: -1})
	defer restored.Close()
	if err := restored.LoadSegments(groups); err != nil {
		t.Fatal(err)
	}
	check("reloaded", restored)
}

// --- concurrency -------------------------------------------------------------

// Four readers race one writer (Add / re-Add / Remove / Seal) and a compactor.
// Every Lookup must return exactly what the reference returns on some state
// the index held between the moment the reader started and the moment it
// finished: a search sees a write entirely or not at all. The subtest keeps
// the name it had when BM25 ran beside TF-IDF as ranking=1.
func TestSegmentedLookupLinearizableUnderWrites(t *testing.T) {
	t.Run("ranking=0", segmentedLookupLinearizableUnderWrites)
}

func segmentedLookupLinearizableUnderWrites(t *testing.T) {
	s := NewSegmented(SegmentedOptions{MemtableCap: 6})
	defer s.Close()

	// states[i] is the live set after i writes. The writer publishes state
	// i+1 before it starts write i+1, so a reader that observed "started =
	// hi" can read states[:hi+1].
	var (
		statesMu  sync.Mutex
		states    = []map[DocID]map[Term]uint64{{}}
		started   atomic.Int64
		completed atomic.Int64
	)
	const writes = 300
	stop := make(chan struct{})
	var readers, compactor sync.WaitGroup

	compactor.Add(1)
	go func() {
		defer compactor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Compact()
		}
	}()

	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(900 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				query := make(map[Term]uint64)
				for i := 1 + rng.Intn(3); i > 0; i-- {
					query[Term(fmt.Sprintf("t%02d", rng.Intn(traceVocab)))] = uint64(1 + rng.Intn(3))
				}
				lo := completed.Load()
				got := s.Lookup(SortedTerms(query), 5)
				hi := started.Load()
				statesMu.Lock()
				window := states[lo : hi+1]
				statesMu.Unlock()
				ok := false
				for _, live := range window {
					if sameResults(got, refSearch(live, query, 5)) {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("Lookup(%v) = %v matches no state in [%d, %d]", query, got, lo, hi)
					return
				}
			}
		}(g)
	}

	m := newSegModel(6)
	r := &traceReader{data: seededTrace(77, writes)}
	for w := 0; w < writes; w++ {
		var apply func()
		switch op := r.next() % 16; {
		case op < 9:
			doc := DocID(fmt.Sprintf("d%02d", r.next()%traceDocs))
			terms := r.terms()
			m.add(doc, terms)
			apply = func() { s.Add(doc, terms) }
		case op < 13:
			doc := DocID(fmt.Sprintf("d%02d", r.next()%traceDocs))
			m.remove(doc)
			apply = func() { s.Remove(doc) }
		default:
			apply = s.Seal
		}
		snapshot := make(map[DocID]map[Term]uint64, len(m.live))
		for doc, terms := range m.live {
			snapshot[doc] = terms // term maps are never mutated after add
		}
		statesMu.Lock()
		states = append(states, snapshot)
		statesMu.Unlock()
		started.Add(1)
		apply()
		completed.Add(1)
	}
	close(stop)
	readers.Wait()
	compactor.Wait()

	for term := 0; term < traceVocab; term++ {
		query := map[Term]uint64{Term(fmt.Sprintf("t%02d", term)): 1}
		if got, want := s.Lookup(SortedTerms(query), 10), refSearch(m.live, query, 10); !sameResults(got, want) {
			t.Fatalf("after the race: Lookup(%v)\ngot  %v\nwant %v", query, got, want)
		}
	}
}
