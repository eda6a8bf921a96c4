package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mie/internal/bin"
	"mie/internal/dpe"
	"mie/internal/index"
	"mie/internal/vec"
)

// ascending fails unless terms are in strictly ascending Term order, the
// precondition of index.Segmented.Lookup.
func ascending(t *testing.T, what string, terms []index.QueryTerm) {
	t.Helper()
	for i := 1; i < len(terms); i++ {
		if terms[i-1].Term >= terms[i].Term {
			t.Fatalf("%s: term %d %q does not follow %q", what, i, terms[i].Term, terms[i-1].Term)
		}
	}
}

// mixedUpdates returns n text updates at fanout-small's shape, every other one
// also carrying three 64-bit image codes.
func mixedUpdates(rng *rand.Rand, n int) []*Update {
	ups := textShapeUpdates(rng, n)
	for i, up := range ups {
		if i%2 == 0 {
			up.ImageEncodings = []vec.BitVec{randomCode(rng, 64), randomCode(rng, 64), randomCode(rng, 64)}
		}
	}
	return ups
}

// TestQueryTermProducersAreAscending pins every producer of the index's query
// form: the wire decoder, both engines' QueryTerms and the map helper yield
// each term once, in strictly ascending order, and carry the frequencies of
// the map they stand for. The dense vocabulary has more than ten words, so
// the order of its terms ("vw:10" < "vw:2") is not the order of its words.
func TestQueryTermProducersAreAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ups := mixedUpdates(rng, 60)
	opts := smallRepoOptions()
	opts.VocabWords = 16
	r := trainedRepository(t, opts, ups)
	st := r.state.Load()
	dense := st.engines[1].(*denseEngine)
	if dense.CodebookSize() <= 10 {
		t.Fatalf("codebook of %d words: numeric and string order agree", dense.CodebookSize())
	}

	orderDiffers := false
	for i, up := range ups {
		m := make(map[dpe.Token]uint64, len(up.TextTokens))
		for tok, f := range up.TextTokens {
			m[tok] = f
		}
		for j := 0; j < 3; j++ { // tokens no stored object holds
			var tok dpe.Token
			rng.Read(tok[:])
			m[tok] = uint64(1 + j)
		}
		want := &Query{TextTokens: SortedTokens(m), K: 5}
		var q Query
		c := bin.NewCursor(want.AppendTo(nil))
		q.ConsumeFrom(c)
		if err := c.Done(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !tokensAscending(q.TextTokens) || len(q.TextTokens) != len(m) {
			t.Fatalf("query %d: decoded %d tokens out of order or merged, from %d", i, len(q.TextTokens), len(m))
		}
		for _, tf := range q.TextTokens {
			if m[tf.Token] != tf.Freq {
				t.Fatalf("query %d: token %s has frequency %d, want %d", i, tf.Token, tf.Freq, m[tf.Token])
			}
		}

		text, err := textEngine{}.QueryTerms(&q)
		if err != nil {
			t.Fatal(err)
		}
		ascending(t, fmt.Sprintf("text query %d", i), text)
		for j, qt := range text {
			if string(qt.Term) != string(q.TextTokens[j].Token[:]) || qt.Freq != q.TextTokens[j].Freq {
				t.Fatalf("text query %d: term %d is %x×%d, want %s×%d", i, j, qt.Term, qt.Freq, q.TextTokens[j].Token, q.TextTokens[j].Freq)
			}
		}

		encs := append(append([]vec.BitVec(nil), up.ImageEncodings...), ups[(i+1)%len(ups)].ImageEncodings...)
		encs = append(encs, ups[(i+2)%len(ups)].ImageEncodings...)
		for j := 0; j < 26; j++ {
			encs = append(encs, randomCode(rng, 64))
		}
		image, err := dense.QueryTerms(&Query{ImageEncodings: encs, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		ascending(t, fmt.Sprintf("image query %d", i), image)
		hist := dense.histTerms(encs)
		if got := len(image); got != len(hist) {
			t.Fatalf("image query %d: %d terms, the histogram has %d", i, got, len(hist))
		}
		for j, qt := range image {
			if hist[qt.Term] != qt.Freq {
				t.Fatalf("image query %d: %s×%d, the histogram says %d", i, qt.Term, qt.Freq, hist[qt.Term])
			}
			if j > 0 && wordOf(t, image[j-1].Term) > wordOf(t, qt.Term) {
				orderDiffers = true
			}
		}

		helper := index.SortedTerms(hist)
		ascending(t, fmt.Sprintf("SortedTerms %d", i), helper)
		if !reflect.DeepEqual(helper, image) {
			t.Fatalf("image query %d: SortedTerms of the histogram %v, QueryTerms %v", i, helper, image)
		}
	}
	if !orderDiffers {
		t.Fatal("no query held two words whose term order differs from their numeric order")
	}
}

// wordOf parses a dense term's word number.
func wordOf(t *testing.T, term index.Term) int {
	t.Helper()
	w, err := strconv.Atoi(strings.TrimPrefix(string(term), "vw:"))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSearchRefusesUnsortedTokens: an in-process query holds its tokens in the
// order the wire does, or Search refuses it instead of scoring it in another
// order of additions.
func TestSearchRefusesUnsortedTokens(t *testing.T) {
	ups := textShapeUpdates(rand.New(rand.NewSource(2)), 20)
	for _, trained := range []bool{false, true} {
		r, err := NewRepository("unsorted", RepositoryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = r.Close() })
		for _, up := range ups {
			if err := r.UpdateContext(context.Background(), up); err != nil {
				t.Fatal(err)
			}
		}
		if trained {
			if err := r.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		sorted := SortedTokens(ups[0].TextTokens)
		if len(sorted) < 2 {
			t.Fatal("the query needs two tokens")
		}
		if _, err := r.SearchContext(context.Background(), &Query{TextTokens: sorted, K: 5}); err != nil {
			t.Fatalf("trained %v: sorted query: %v", trained, err)
		}
		swapped := append([]TokenFreq(nil), sorted...)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		repeated := append([]TokenFreq(nil), sorted...)
		repeated[1] = repeated[0]
		for name, tokens := range map[string][]TokenFreq{"out of order": swapped, "repeated": repeated} {
			if hits, err := r.SearchContext(context.Background(), &Query{TextTokens: tokens, K: 5}); err == nil {
				t.Errorf("trained %v: a query with tokens %s answered %d hits", trained, name, len(hits))
			}
		}
	}
}

// TestRawTextTermsRankAsHexTerms: the text index keyed by a token's raw bytes
// ranks every query exactly as the same index keyed by the token's hex digits
// (the key it had before), ids and score bits, over sealed segments, the
// memtable and removed documents. Hex keeps byte order, so both walk a
// query's terms in the same order. The hex-keyed index is only a reference.
func TestRawTextTermsRankAsHexTerms(t *testing.T) {
	ups := textShapeUpdates(rand.New(rand.NewSource(5)), 300)
	raw := index.NewSegmented(index.SegmentedOptions{MemtableCap: -1})
	ref := index.NewSegmented(index.SegmentedOptions{MemtableCap: -1})
	defer raw.Close()
	defer ref.Close()
	hexTerms := func(tokens map[dpe.Token]uint64) map[index.Term]uint64 {
		out := make(map[index.Term]uint64, len(tokens))
		for tok, f := range tokens {
			out[index.Term(tok.String())] = f
		}
		return out
	}
	for i, up := range ups {
		doc := index.DocID(up.ObjectID)
		raw.Add(doc, textEngine{}.ExtractTerms(&storedObject{textTokens: up.TextTokens}))
		ref.Add(doc, hexTerms(up.TextTokens))
		if i%7 == 3 {
			gone := index.DocID(ups[i/2].ObjectID)
			raw.Remove(gone)
			ref.Remove(gone)
		}
		if i == 99 || i == 199 {
			raw.Seal()
			ref.Seal()
		}
	}
	for i, up := range ups {
		q := &Query{TextTokens: SortedTokens(up.TextTokens), K: 10}
		terms, err := textEngine{}.QueryTerms(q)
		if err != nil {
			t.Fatal(err)
		}
		refTerms := index.SortedTerms(hexTerms(up.TextTokens))
		for _, k := range []int{10, 100} {
			got, want := raw.Lookup(terms, k), ref.Lookup(refTerms, k)
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("query %d, k %d: %d hits, reference %d", i, k, len(got), len(want))
			}
			for j := range got {
				if got[j].Doc != want[j].Doc || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
					t.Fatalf("query %d, k %d, rank %d: %s %#x, reference %s %#x", i, k, j,
						got[j].Doc, math.Float64bits(got[j].Score), want[j].Doc, math.Float64bits(want[j].Score))
				}
			}
		}
	}
}

// boundaryRepository is a trained repository whose text and image indexes
// each hold a sealed segment with a removed document and a memtable.
func boundaryRepository(t *testing.T) (*Repository, []*Update) {
	t.Helper()
	ups := mixedUpdates(rand.New(rand.NewSource(9)), 80)
	r := trainedRepository(t, smallRepoOptions(), ups[:60])
	for _, up := range ups[60:] {
		if err := r.UpdateContext(context.Background(), up); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{ups[3].ObjectID, ups[70].ObjectID} {
		if err := r.RemoveContext(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	return r, ups
}

// segmentBatches returns every index's SegmentBatches.
func segmentBatches(t *testing.T, r *Repository) [][][]index.BatchDoc {
	t.Helper()
	st := r.state.Load()
	out := make([][][]index.BatchDoc, len(st.indexes))
	for i, idx := range st.indexes {
		groups, err := idx.SegmentBatches()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = groups
	}
	return out
}

// sameGroups reports whether two SegmentBatches results hold the same
// documents and terms in the same groups; an empty group equals a nil one,
// as gob decodes it.
func sameGroups(a, b [][]index.BatchDoc) bool {
	if len(a) != len(b) {
		return false
	}
	for g := range a {
		if len(a[g]) != len(b[g]) {
			return false
		}
		for i := range a[g] {
			if a[g][i].Doc != b[g][i].Doc || !reflect.DeepEqual(a[g][i].Terms, b[g][i].Terms) {
				return false
			}
		}
	}
	return true
}

// searchBits runs a text-only, an image-only and a fused query per update and
// returns every hit as its id and score bits.
func searchBits(t *testing.T, r *Repository, ups []*Update) []string {
	t.Helper()
	var out []string
	for _, up := range ups {
		text := SortedTokens(up.TextTokens)
		for _, q := range []*Query{
			{TextTokens: text, K: 8},
			{ImageEncodings: up.ImageEncodings, K: 8},
			{TextTokens: text, ImageEncodings: up.ImageEncodings, K: 8},
		} {
			if len(q.TextTokens) == 0 && len(q.ImageEncodings) == 0 {
				continue
			}
			hits, err := r.SearchContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				out = append(out, fmt.Sprintf("%s:%#x", h.ObjectID, math.Float64bits(h.Score)))
			}
			out = append(out, "|")
		}
	}
	return out
}

// TestSnapshotWritesTextTermsInHex: a snapshot holds the text index's terms as
// the 64 hex digits of their tokens and every other index's as they are, and
// both a restore and a follower's install of it give back the same segments
// with raw text terms, and the same ids and score bits for every query.
func TestSnapshotWritesTextTermsInHex(t *testing.T) {
	r, ups := boundaryRepository(t)
	before := segmentBatches(t, r)
	if len(before[0]) < 2 {
		t.Fatalf("the text index has %d segment groups, want a sealed segment and the memtable", len(before[0]))
	}
	answers := searchBits(t, r, ups)
	image, err := r.SnapshotBytes(nil)
	if err != nil {
		t.Fatal(err)
	}

	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(image)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for i, groups := range before {
		want := groups
		if r.state.Load().engines[i].Modality() == ModalityText {
			want = make([][]index.BatchDoc, len(groups))
			for g, group := range groups {
				for _, d := range group {
					terms := make(map[index.Term]uint64, len(d.Terms))
					for term, f := range d.Terms {
						if len(term) != len(dpe.Token{}) {
							t.Fatalf("text index term %q is not a raw token", term)
						}
						terms[index.Term(hex.EncodeToString([]byte(term)))] = f
					}
					want[g] = append(want[g], index.BatchDoc{Doc: d.Doc, Terms: terms})
				}
			}
		}
		if !sameGroups(snap.IndexSegments[i], want) {
			t.Fatalf("index %d: the snapshot's segments are not the index's, hex-encoded for text", i)
		}
	}

	restored, err := LoadRepository(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = restored.Close() })
	svc, _, err := OpenService(ServiceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	if err := svc.InstallSnapshot(r.ID(), image); err != nil {
		t.Fatal(err)
	}
	installed, err := svc.Repository(r.ID())
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Repository{"restore": restored, "install": installed} {
		after := segmentBatches(t, got)
		for i := range before {
			if !sameGroups(after[i], before[i]) {
				t.Errorf("%s: index %d: the segments differ from the snapshotted repository's", name, i)
			}
		}
		if again := searchBits(t, got, ups); !reflect.DeepEqual(again, answers) {
			t.Errorf("%s: search answers differ from the snapshotted repository's", name)
		}
	}
}
