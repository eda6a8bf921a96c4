package fusion

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mie/internal/index"
)

func list(docs ...index.DocID) []index.Result {
	out := make([]index.Result, len(docs))
	for i, d := range docs {
		out[i] = index.Result{Doc: d, Score: float64(len(docs) - i)}
	}
	return out
}

func TestFuseEmpty(t *testing.T) {
	if got := Fuse(LogISR, nil, 5); len(got) != 0 {
		t.Errorf("fusing nothing returned %v", got)
	}
	if got := Fuse(LogISR, [][]index.Result{list("a")}, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestFuseSingleModalityPreservesOrder(t *testing.T) {
	in := list("a", "b", "c")
	got := Fuse(LogISR, [][]index.Result{in}, 3)
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	for i, want := range []index.DocID{"a", "b", "c"} {
		if got[i].Doc != want {
			t.Errorf("pos %d = %s, want %s", i, got[i].Doc, want)
		}
	}
}

func TestFuseMultimodalAgreementWins(t *testing.T) {
	// "both" is rank 1 in text and rank 2 in images; the other docs top one
	// modality each. Cross-modality agreement should put "both" first:
	// (1 + 1/4)·log(3) beats 1·log(2).
	textList := list("both", "t2", "t3")
	imageList := list("v1", "both", "v3")
	got := Fuse(LogISR, [][]index.Result{textList, imageList}, 5)
	if got[0].Doc != "both" {
		t.Errorf("top = %s, want both (cross-modality agreement boost): %v", got[0].Doc, got)
	}
}

func TestFuseISRNoBoost(t *testing.T) {
	// Under plain ISR the agreement doc at ranks (2,2) scores 2/4 = 0.5 <
	// 1.0 of the rank-1 singletons.
	textList := list("t1", "both")
	imageList := list("v1", "both")
	got := Fuse(ISR, [][]index.Result{textList, imageList}, 5)
	if got[0].Doc == "both" {
		t.Errorf("plain ISR should not boost agreement above rank-1 hits: %v", got)
	}
}

func TestFuseTopKTruncation(t *testing.T) {
	got := Fuse(LogISR, [][]index.Result{list("a", "b", "c", "d", "e")}, 2)
	if len(got) != 2 {
		t.Errorf("got %d results, want 2", len(got))
	}
}

func TestFuseRanksDescending(t *testing.T) {
	got := Fuse(RRF, [][]index.Result{list("a", "b", "c"), list("c", "a")}, 10)
	for i := 1; i < len(got); i++ {
		if got[i-1].Score < got[i].Score {
			t.Errorf("scores not descending at %d: %v", i, got)
		}
	}
}

func TestFuseDeterministicTies(t *testing.T) {
	a := Fuse(LogISR, [][]index.Result{list("x", "y"), list("y", "x")}, 2)
	b := Fuse(LogISR, [][]index.Result{list("x", "y"), list("y", "x")}, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("fusion not deterministic: %v vs %v", a, b)
		}
	}
}

func TestFuseBoundsProperty(t *testing.T) {
	f := func(sizes [3]uint8, k uint8) bool {
		var lists [][]index.Result
		distinct := map[index.DocID]struct{}{}
		for li, sz := range sizes {
			n := int(sz % 20)
			var l []index.Result
			for i := 0; i < n; i++ {
				d := index.DocID(fmt.Sprintf("d%d-%d", li, i%7))
				l = append(l, index.Result{Doc: d, Score: float64(n - i)})
				distinct[d] = struct{}{}
			}
			lists = append(lists, l)
		}
		kk := int(k%10) + 1
		out := Fuse(LogISR, lists, kk)
		if len(out) > kk || len(out) > len(distinct) {
			return false
		}
		seen := map[index.DocID]struct{}{}
		for i, r := range out {
			if _, dup := seen[r.Doc]; dup {
				return false // no duplicate docs in fused output
			}
			seen[r.Doc] = struct{}{}
			if i > 0 && out[i-1].Score < r.Score {
				return false // descending
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fuseReference is the straightforward formulation Fuse must keep matching
// bit for bit: per-document sum and hit count, score every document, sort the
// whole union, cut at k.
func fuseReference(method Method, lists [][]index.Result, k int) []index.Result {
	sums := map[index.DocID]float64{}
	hits := map[index.DocID]int{}
	for _, l := range lists {
		for i, r := range l {
			rank := float64(i + 1)
			if method == RRF {
				sums[r.Doc] += 1 / (60 + rank)
			} else {
				sums[r.Doc] += 1 / (rank * rank)
			}
			hits[r.Doc]++
		}
	}
	out := []index.Result{}
	for doc, s := range sums {
		if method == LogISR {
			s *= math.Log(1 + float64(hits[doc]))
		}
		out = append(out, index.Result{Doc: doc, Score: s})
	}
	index.SortResults(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestFuseMatchesReference(t *testing.T) {
	long := make([]index.DocID, 40)
	for i := range long {
		long[i] = index.DocID(fmt.Sprintf("d%02d", (i*7)%40))
	}
	cases := []struct {
		name  string
		lists [][]index.Result
		k     int
	}{
		{"no lists", nil, 5},
		{"only empty lists", [][]index.Result{nil, {}}, 5},
		{"one empty list among two", [][]index.Result{list("a", "b"), nil}, 5},
		{"ties broken by DocID", [][]index.Result{list("x", "y"), list("y", "x")}, 2},
		{"all tied, cut mid-tie", [][]index.Result{list("c"), list("a"), list("b"), list("d")}, 2},
		{"k larger than the union", [][]index.Result{list("a", "b", "c"), list("c", "d")}, 50},
		{"k = 1", [][]index.Result{list("a", "b", "c"), list("b", "a")}, 1},
		{"duplicate doc inside one list", [][]index.Result{list("a", "b", "a"), list("b")}, 3},
		{"three modalities, deep lists", [][]index.Result{list(long...), list(long[10:]...), list(long[25:]...)}, 10},
	}
	for _, method := range []Method{LogISR, ISR, RRF} {
		for _, tc := range cases {
			got := Fuse(method, tc.lists, tc.k)
			want := fuseReference(method, tc.lists, tc.k)
			if len(got) != len(want) {
				t.Errorf("method %d, %s: %d results, want %d\ngot  %v\nwant %v", method, tc.name, len(got), len(want), got, want)
				continue
			}
			for i := range got {
				if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Errorf("method %d, %s: pos %d = %v, want %v", method, tc.name, i, got[i], want[i])
				}
			}
		}
	}
}
