package index

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func randTermsFor(rng *rand.Rand, vocabSize, maxTerms int) map[Term]uint64 {
	n := 1 + rng.Intn(maxTerms)
	terms := make(map[Term]uint64, n)
	for i := 0; i < n; i++ {
		terms[Term(fmt.Sprintf("t%d", rng.Intn(vocabSize)))] = uint64(1 + rng.Intn(5))
	}
	return terms
}

// assertResultsEquivalent compares two rankings allowing float-summation
// order differences: per-doc scores must agree within tol, and relative order
// must agree wherever the score gap exceeds tol.
func assertResultsEquivalent(t *testing.T, got, want []Result, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result length %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	wantScores := make(map[DocID]float64, len(want))
	for _, r := range want {
		wantScores[r.Doc] = r.Score
	}
	for _, r := range got {
		w, ok := wantScores[r.Doc]
		if !ok {
			t.Fatalf("doc %s in got but not in want\ngot:  %v\nwant: %v", r.Doc, got, want)
		}
		if math.Abs(r.Score-w) > tol {
			t.Fatalf("doc %s score %v, want %v", r.Doc, r.Score, w)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score+tol {
			t.Fatalf("got not sorted at %d: %v", i, got)
		}
	}
}

// The core contract: a Segmented index over any history of adds, re-adds and
// removes — across seals and compactions — ranks exactly like one monolithic
// Inverted holding the final live documents. The subtest keeps the name it
// had when BM25 ran beside TF-IDF as ranking=1.
func TestSegmentedMatchesMonolithicOracle(t *testing.T) {
	t.Run("ranking=0", segmentedMatchesMonolithicOracle)
}

func segmentedMatchesMonolithicOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	seg := NewSegmented(SegmentedOptions{MemtableCap: 7}) // tiny: force many seals
	defer seg.Close()
	oracle := New()
	live := make(map[DocID]map[Term]uint64)
	check := func() {
		t.Helper()
		for q := 0; q < 10; q++ {
			query := randTermsFor(rng, 40, 4)
			got := seg.Lookup(query, 10)
			want := oracle.Search(query, 10)
			assertResultsEquivalent(t, got, want, 1e-9)
		}
		if seg.DocCount() != oracle.DocCount() {
			t.Fatalf("DocCount %d, want %d", seg.DocCount(), oracle.DocCount())
		}
	}
	for step := 0; step < 400; step++ {
		op := rng.Intn(10)
		switch {
		case op < 6 || len(live) == 0: // add or re-add
			doc := DocID(fmt.Sprintf("d%d", rng.Intn(60)))
			terms := randTermsFor(rng, 40, 6)
			if err := seg.Add(doc, terms); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Add(doc, terms); err != nil {
				t.Fatal(err)
			}
			live[doc] = terms
		case op < 8: // remove (sometimes an unknown doc)
			doc := DocID(fmt.Sprintf("d%d", rng.Intn(80)))
			seg.Remove(doc)
			oracle.Remove(doc)
			delete(live, doc)
		case op == 8:
			if err := seg.Seal(); err != nil {
				t.Fatal(err)
			}
		default:
			seg.Compact()
		}
		if step%40 == 0 {
			check()
		}
	}
	check()
	seg.Compact()
	st := seg.Stats()
	if st.SealedSegments > 1 {
		t.Fatalf("after full compaction: %d sealed segments", st.SealedSegments)
	}
	if st.DeadDocs != 0 && st.MemtableDocs == 0 {
		// Garbage can only live in the memtable right after a full
		// compaction (re-adds of sealed docs); with an empty memtable
		// none may remain.
		t.Fatalf("after full compaction: %d dead docs", st.DeadDocs)
	}
	check()
	if st.LiveDocs != len(live) {
		t.Fatalf("LiveDocs %d, want %d", st.LiveDocs, len(live))
	}
}

func TestSegmentedAutoSealAndStats(t *testing.T) {
	seg := NewSegmented(SegmentedOptions{MemtableCap: 3})
	defer seg.Close()
	seals := 0
	seg.opts.OnSeal = func() { seals++ }
	for i := 0; i < 7; i++ {
		if err := seg.Add(DocID(fmt.Sprintf("d%d", i)), map[Term]uint64{"a": 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := seg.Stats()
	if st.SealedSegments != 2 {
		t.Errorf("SealedSegments = %d, want 2 (7 docs / cap 3)", st.SealedSegments)
	}
	if st.MemtableDocs != 1 {
		t.Errorf("MemtableDocs = %d, want 1", st.MemtableDocs)
	}
	if st.LiveDocs != 7 {
		t.Errorf("LiveDocs = %d, want 7", st.LiveDocs)
	}
	if seals != 2 {
		t.Errorf("OnSeal fired %d times, want 2", seals)
	}
	// Tombstoning a sealed doc raises DeadDocs; removing a memtable doc does not.
	seg.Remove("d0")
	seg.Remove("d6")
	st = seg.Stats()
	if st.DeadDocs != 1 {
		t.Errorf("DeadDocs = %d, want 1", st.DeadDocs)
	}
	if st.LiveDocs != 5 {
		t.Errorf("LiveDocs = %d, want 5", st.LiveDocs)
	}
}

func TestSegmentedNeedsCompaction(t *testing.T) {
	seg := NewSegmented(SegmentedOptions{MemtableCap: 2, CompactSegments: 3})
	defer seg.Close()
	if seg.NeedsCompaction() {
		t.Error("empty index must not need compaction")
	}
	for i := 0; i < 6; i++ {
		if err := seg.Add(DocID(fmt.Sprintf("d%d", i)), map[Term]uint64{"a": 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !seg.NeedsCompaction() {
		t.Errorf("3 sealed segments at threshold 3 must need compaction (stats %+v)", seg.Stats())
	}
	seg.Compact()
	if seg.NeedsCompaction() {
		t.Errorf("freshly compacted index must not need compaction (stats %+v)", seg.Stats())
	}
	if got := seg.Stats().Compactions; got != 1 {
		t.Errorf("Compactions = %d, want 1", got)
	}
}

func TestSegmentedBatchesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	seg := NewSegmented(SegmentedOptions{MemtableCap: 5})
	defer seg.Close()
	for i := 0; i < 33; i++ {
		if err := seg.Add(DocID(fmt.Sprintf("d%d", i)), randTermsFor(rng, 30, 5)); err != nil {
			t.Fatal(err)
		}
	}
	seg.Remove("d3")
	if err := seg.Add("d4", randTermsFor(rng, 30, 5)); err != nil { // supersede a sealed version
		t.Fatal(err)
	}
	groups, err := seg.SegmentBatches()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSegmented(SegmentedOptions{MemtableCap: 5})
	defer restored.Close()
	if err := restored.LoadSegments(groups); err != nil {
		t.Fatal(err)
	}
	if restored.DocCount() != seg.DocCount() {
		t.Fatalf("restored DocCount %d, want %d", restored.DocCount(), seg.DocCount())
	}
	if got, want := restored.Stats().SealedSegments, seg.Stats().SealedSegments; got != want {
		t.Fatalf("restored SealedSegments %d, want %d", got, want)
	}
	for q := 0; q < 20; q++ {
		query := randTermsFor(rng, 30, 4)
		assertResultsEquivalent(t, restored.Lookup(query, 10), seg.Lookup(query, 10), 1e-9)
	}
	if err := restored.LoadSegments(groups); err == nil {
		t.Error("LoadSegments on a non-empty index must fail")
	}
}

func TestSegmentedAddBatchBuildsOneSegment(t *testing.T) {
	seg := NewSegmented(SegmentedOptions{MemtableCap: 4})
	defer seg.Close()
	batch := make([]BatchDoc, 20)
	for i := range batch {
		batch[i] = BatchDoc{Doc: DocID(fmt.Sprintf("d%d", i)), Terms: map[Term]uint64{"a": 1}}
	}
	if err := seg.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	st := seg.Stats()
	if st.SealedSegments != 1 {
		t.Errorf("bulk batch must build exactly one sealed segment, got %d", st.SealedSegments)
	}
	if st.MemtableDocs != 0 {
		t.Errorf("memtable should be empty after bulk seal, got %d docs", st.MemtableDocs)
	}
	if st.LiveDocs != 20 {
		t.Errorf("LiveDocs = %d, want 20", st.LiveDocs)
	}
}

func TestSegmentedClose(t *testing.T) {
	seg := NewSegmented(SegmentedOptions{})
	if err := seg.Add("d1", map[Term]uint64{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	seg.Close() // idempotent
	if err := seg.Add("d2", map[Term]uint64{"a": 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Add after Close: err = %v, want ErrClosed", err)
	}
	if err := seg.Seal(); !errors.Is(err, ErrClosed) {
		t.Errorf("Seal after Close: err = %v, want ErrClosed", err)
	}
	seg.Compact()
	if got := seg.Stats().Compactions; got != 0 {
		t.Errorf("Compact after Close must be a no-op, ran %d compactions", got)
	}
}

// Concurrent readers, writers and a compactor under -race: every acknowledged
// add of a distinct doc must be visible afterwards, and lookups must never
// return a removed doc's stale sealed version once Remove returned.
func TestSegmentedConcurrentOpsDuringCompaction(t *testing.T) {
	seg := NewSegmented(SegmentedOptions{MemtableCap: 8})
	defer seg.Close()
	for i := 0; i < 64; i++ {
		if err := seg.Add(DocID(fmt.Sprintf("base-%d", i)), map[Term]uint64{"common": 1, Term(fmt.Sprintf("b%d", i)): 2}); err != nil {
			t.Fatal(err)
		}
	}
	var writersWG, bgWG sync.WaitGroup
	stop := make(chan struct{})
	// Compactor.
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seg.Compact()
		}
	}()
	// Readers.
	for r := 0; r < 3; r++ {
		bgWG.Add(1)
		go func(r int) {
			defer bgWG.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := seg.Lookup(map[Term]uint64{"common": 1, Term(fmt.Sprintf("b%d", rng.Intn(64))): 1}, 5)
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score {
						t.Error("unsorted results under concurrency")
						return
					}
				}
			}
		}(r)
	}
	// Writers: each owns a disjoint doc range.
	const writers, perWriter = 4, 80
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				doc := DocID(fmt.Sprintf("w%d-%d", w, i))
				if err := seg.Add(doc, map[Term]uint64{"common": 1, Term(fmt.Sprintf("u-%s", doc)): 3}); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					seg.Remove(doc)
				}
			}
		}(w)
	}
	// Let writers finish, then stop readers/compactor.
	writersWG.Wait()
	close(stop)
	bgWG.Wait()

	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			doc := DocID(fmt.Sprintf("w%d-%d", w, i))
			want := i%7 != 0
			if got := seg.Has(doc); got != want {
				t.Fatalf("doc %s present=%v, want %v", doc, got, want)
			}
			if want {
				res := seg.Lookup(map[Term]uint64{Term(fmt.Sprintf("u-%s", doc)): 1}, 1)
				if len(res) != 1 || res[0].Doc != doc {
					t.Fatalf("unique lookup for %s got %v", doc, res)
				}
			}
		}
	}
	seg.Compact()
	if st := seg.Stats(); st.SealedSegments > 1 {
		t.Errorf("final compaction left %d sealed segments", st.SealedSegments)
	}
}
