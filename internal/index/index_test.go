package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestAddEmptyDocID(t *testing.T) {
	ix := New()
	if err := ix.Add("", map[Term]uint64{"a": 1}); err == nil {
		t.Error("expected error for empty DocID")
	}
}

func TestAddSearchBasic(t *testing.T) {
	ix := New()
	docs := map[DocID]map[Term]uint64{
		"d1": {"cloud": 3, "secure": 1},
		"d2": {"cloud": 1, "mobile": 5},
		"d3": {"mobile": 2},
	}
	for d, terms := range docs {
		if err := ix.Add(d, terms); err != nil {
			t.Fatal(err)
		}
	}
	if ix.DocCount() != 3 {
		t.Fatalf("DocCount = %d", ix.DocCount())
	}
	res := ix.Search(map[Term]uint64{"mobile": 1}, 10)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(res), res)
	}
	if res[0].Doc != "d2" {
		t.Errorf("top result = %s, want d2 (higher tf)", res[0].Doc)
	}
	if res[0].Score <= res[1].Score {
		t.Error("results not sorted descending")
	}
}

func TestSearchZeroK(t *testing.T) {
	ix := New()
	if err := ix.Add("d", map[Term]uint64{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if res := ix.Search(map[Term]uint64{"x": 1}, 0); res != nil {
		t.Errorf("k=0 should return nil, got %v", res)
	}
}

func TestSearchUnknownTerm(t *testing.T) {
	ix := New()
	if err := ix.Add("d", map[Term]uint64{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if res := ix.Search(map[Term]uint64{"nope": 1}, 5); len(res) != 0 {
		t.Errorf("unknown term returned %v", res)
	}
}

func TestUbiquitousTermScoresZero(t *testing.T) {
	ix := New()
	for i := 0; i < 4; i++ {
		if err := ix.Add(DocID(fmt.Sprintf("d%d", i)), map[Term]uint64{"every": 1}); err != nil {
			t.Fatal(err)
		}
	}
	// idf = log(4/4) = 0 -> no result should surface.
	if res := ix.Search(map[Term]uint64{"every": 1}, 5); len(res) != 0 {
		t.Errorf("ubiquitous term produced results: %v", res)
	}
}

func TestRemove(t *testing.T) {
	ix := New()
	if err := ix.Add("d1", map[Term]uint64{"a": 1, "b": 2}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("d2", map[Term]uint64{"a": 1}); err != nil {
		t.Fatal(err)
	}
	ix.Remove("d1")
	if ix.Has("d1") {
		t.Error("d1 still present after Remove")
	}
	if ix.DocCount() != 1 {
		t.Errorf("DocCount = %d, want 1", ix.DocCount())
	}
	for _, r := range ix.Search(map[Term]uint64{"a": 1, "b": 1}, 10) {
		if r.Doc == "d1" {
			t.Error("removed doc surfaced in search")
		}
	}
	// Removing again is a no-op.
	ix.Remove("d1")
	if ix.DocCount() != 1 {
		t.Errorf("double remove changed DocCount to %d", ix.DocCount())
	}
}

func TestReAddReplaces(t *testing.T) {
	ix := New()
	if err := ix.Add("d", map[Term]uint64{"old": 5}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("d", map[Term]uint64{"new": 5}); err != nil {
		t.Fatal(err)
	}
	if ix.DocCount() != 1 {
		t.Fatalf("DocCount = %d, want 1 after re-add", ix.DocCount())
	}
	if res := ix.Search(map[Term]uint64{"old": 1}, 5); len(res) != 0 {
		t.Errorf("stale term survived re-add: %v", res)
	}
	// With one doc in the corpus idf = 0, so add a decoy to score "new".
	if err := ix.Add("decoy", map[Term]uint64{"decoyterm": 1}); err != nil {
		t.Fatal(err)
	}
	if res := ix.Search(map[Term]uint64{"new": 1}, 5); len(res) != 1 || res[0].Doc != "d" {
		t.Errorf("new term not searchable: %v", res)
	}
}

func TestAddRemoveInverseProperty(t *testing.T) {
	ix := New()
	rng := rand.New(rand.NewSource(1))
	// Interleave adds and removes; after removing everything the index must
	// be empty again.
	live := make(map[DocID]bool)
	for i := 0; i < 200; i++ {
		d := DocID(fmt.Sprintf("doc%d", rng.Intn(50)))
		if live[d] && rng.Intn(2) == 0 {
			ix.Remove(d)
			delete(live, d)
			continue
		}
		terms := map[Term]uint64{}
		for j := 0; j < 1+rng.Intn(5); j++ {
			terms[Term(fmt.Sprintf("t%d", rng.Intn(20)))] = uint64(1 + rng.Intn(4))
		}
		if err := ix.Add(d, terms); err != nil {
			t.Fatal(err)
		}
		live[d] = true
	}
	if ix.DocCount() != len(live) {
		t.Fatalf("DocCount = %d, want %d", ix.DocCount(), len(live))
	}
	for d := range live {
		ix.Remove(d)
	}
	if ix.DocCount() != 0 {
		t.Errorf("DocCount = %d after removing all", ix.DocCount())
	}
	if ix.TermCount() != 0 {
		t.Errorf("TermCount = %d after removing all", ix.TermCount())
	}
}

func TestTopKLimit(t *testing.T) {
	ix := New()
	for i := 0; i < 50; i++ {
		if err := ix.Add(DocID(fmt.Sprintf("d%02d", i)), map[Term]uint64{"q": uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Need a decoy so idf > 0.
	if err := ix.Add("decoy", map[Term]uint64{"other": 1}); err != nil {
		t.Fatal(err)
	}
	res := ix.Search(map[Term]uint64{"q": 1}, 5)
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
	if res[0].Doc != "d49" {
		t.Errorf("top doc = %s, want d49", res[0].Doc)
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Score < res[i].Score {
			t.Error("results not in descending score order")
		}
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := New()
	for _, d := range []DocID{"b", "a", "c"} {
		if err := ix.Add(d, map[Term]uint64{"q": 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Add("decoy", map[Term]uint64{"x": 1}); err != nil {
		t.Fatal(err)
	}
	res := ix.Search(map[Term]uint64{"q": 1}, 3)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Doc != "a" || res[1].Doc != "b" || res[2].Doc != "c" {
		t.Errorf("tie break order: %v", res)
	}
}

func TestConcurrentAddSearchRemove(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d := DocID(fmt.Sprintf("w%d-d%d", w, i))
				if err := ix.Add(d, map[Term]uint64{Term(fmt.Sprintf("t%d", i%10)): 1}); err != nil {
					t.Error(err)
					return
				}
				ix.Search(map[Term]uint64{Term(fmt.Sprintf("t%d", i%10)): 1}, 5)
				if i%3 == 0 {
					ix.Remove(d)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestSortResults(t *testing.T) {
	rs := []Result{{Doc: "b", Score: 1}, {Doc: "a", Score: 3}, {Doc: "c", Score: 1}}
	SortResults(rs)
	if rs[0].Doc != "a" || rs[1].Doc != "b" || rs[2].Doc != "c" {
		t.Errorf("SortResults order: %v", rs)
	}
}
