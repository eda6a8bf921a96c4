package ann

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mie/internal/vec"
)

// randCode draws a random nbits-bit code.
func randCode(rng *rand.Rand, nbits int) vec.BitVec {
	b := vec.NewBitVec(nbits)
	for i := 0; i < nbits; i++ {
		if rng.Intn(2) == 1 {
			b.Set(i, true)
		}
	}
	return b
}

// flip returns a copy of c with each bit flipped with probability p.
func flip(rng *rand.Rand, c vec.BitVec, p float64) vec.BitVec {
	out := c.Clone()
	for i := 0; i < c.Len(); i++ {
		if rng.Float64() < p {
			out.Set(i, !out.Get(i))
		}
	}
	return out
}

// exhaustive returns options whose probe budget reaches every bucket.
func exhaustive(tables, bits int) Options {
	return Options{Tables: tables, Bits: bits, Probes: 1 << uint(bits), Seed: 1}
}

// TestExhaustiveProbeCoversCorpus: with a 2^K probe budget every live code
// must come back as a candidate, with its exact Hamming distance, in
// ascending slot order.
func TestExhaustiveProbeCoversCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, nbits = 200, 128
	ix := New(exhaustive(2, 6))
	codes := make([]vec.BitVec, n)
	for i := range codes {
		codes[i] = randCode(rng, nbits)
		if err := ix.AddAll(fmt.Sprintf("k%03d", i), []vec.BitVec{codes[i]}); err != nil {
			t.Fatal(err)
		}
	}
	q := randCode(rng, nbits)
	cands, st := ix.Probe(q)
	if len(cands) != n {
		t.Fatalf("exhaustive probe returned %d candidates, want %d", len(cands), n)
	}
	if st.Candidates != n {
		t.Errorf("stats.Candidates = %d, want %d", st.Candidates, n)
	}
	if st.Probes != 2*(1<<6) {
		t.Errorf("stats.Probes = %d, want %d", st.Probes, 2*(1<<6))
	}
	for i, c := range cands {
		if i > 0 && cands[i-1].Slot >= c.Slot {
			t.Fatalf("candidates not in ascending slot order at %d", i)
		}
		if want := vec.Hamming(q, codes[c.Slot]); c.Dist != want {
			t.Errorf("candidate %s dist = %d, want %d", c.Key, c.Dist, want)
		}
	}
}

// TestMultiProbeRecall: with a modest probe budget, near-duplicates of
// corpus codes must be found with high recall while touching a fraction of
// the corpus.
func TestMultiProbeRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, nbits = 2000, 256
	ix := New(Options{Tables: 8, Bits: 12, Probes: 13, Seed: 1})
	codes := make([]vec.BitVec, n)
	for i := range codes {
		codes[i] = randCode(rng, nbits)
		if err := ix.AddAll(fmt.Sprintf("k%04d", i), []vec.BitVec{codes[i]}); err != nil {
			t.Fatal(err)
		}
	}
	found, candTotal := 0, 0
	const queries = 100
	for qi := 0; qi < queries; qi++ {
		target := rng.Intn(n)
		q := flip(rng, codes[target], 0.04)
		cands, _ := ix.Probe(q)
		candTotal += len(cands)
		for _, c := range cands {
			if c.Slot == target {
				found++
				break
			}
		}
	}
	if recall := float64(found) / queries; recall < 0.9 {
		t.Errorf("near-duplicate recall %.2f < 0.9", recall)
	}
	if frac := float64(candTotal) / (queries * n); frac > 0.5 {
		t.Errorf("candidate fraction %.2f — probing degenerated to a scan", frac)
	}
}

// TestRemoveAndReplace: removed keys never surface; AddAll replaces.
func TestRemoveAndReplace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := New(exhaustive(2, 4))
	a, b := randCode(rng, 64), randCode(rng, 64)
	if err := ix.AddAll("a", []vec.BitVec{a, flip(rng, a, 0.1)}); err != nil {
		t.Fatal(err)
	}
	if err := ix.AddAll("b", []vec.BitVec{b}); err != nil {
		t.Fatal(err)
	}
	if got := ix.Live(); got != 3 {
		t.Fatalf("Live = %d, want 3", got)
	}
	// Replace a's two codes with one.
	if err := ix.AddAll("a", []vec.BitVec{a}); err != nil {
		t.Fatal(err)
	}
	if got := ix.Live(); got != 2 {
		t.Fatalf("Live after replace = %d, want 2", got)
	}
	if st := ix.IndexStats(); st.Dead != 2 {
		t.Errorf("Dead after replace = %d, want a's 2 tombstones", st.Dead)
	}
	// Removing b leaves 3 tombstones against 1 live code: the index compacts
	// itself, which must preserve probe results and reclaim every tombstone.
	ix.Remove("b")
	if st := ix.IndexStats(); st.Dead != 0 || st.Live != 1 {
		t.Errorf("after the self-compaction: %+v, want 1 live, 0 dead", st)
	}
	cands, _ := ix.Probe(a)
	if len(cands) != 1 || cands[0].Key != "a" || cands[0].Dist != 0 || cands[0].Slot != 0 {
		t.Fatalf("candidates after remove = %+v", cands)
	}
	// An empty AddAll is a remove.
	if err := ix.AddAll("a", nil); err != nil {
		t.Fatal(err)
	}
	if got := ix.Live(); got != 0 {
		t.Fatalf("Live after empty AddAll = %d, want 0", got)
	}
}

func TestAddAllErrors(t *testing.T) {
	ix := New(Options{})
	if err := ix.AddAll("", []vec.BitVec{vec.NewBitVec(64)}); err == nil {
		t.Error("expected error for empty key")
	}
	if err := ix.AddAll("x", []vec.BitVec{{}}); err == nil {
		t.Error("expected error for zero-length code")
	}
	if err := ix.AddAll("x", []vec.BitVec{vec.NewBitVec(64)}); err != nil {
		t.Fatal(err)
	}
	if err := ix.AddAll("y", []vec.BitVec{vec.NewBitVec(128)}); err == nil {
		t.Error("expected error for mismatched code length")
	}
	// The mismatch must not leave y's partial state behind.
	if got := ix.Live(); got != 1 {
		t.Errorf("Live after mismatch = %d, want 1", got)
	}
}

func TestDisable(t *testing.T) {
	ix := New(Options{})
	if err := ix.AddAll("x", []vec.BitVec{vec.NewBitVec(64)}); err != nil {
		t.Fatal(err)
	}
	ix.Disable()
	if got := ix.Live(); got != 0 {
		t.Errorf("Live after Disable = %d", got)
	}
	if err := ix.AddAll("y", []vec.BitVec{vec.NewBitVec(64)}); err != nil {
		t.Fatalf("AddAll on disabled index: %v", err)
	}
	if cands, _ := ix.Probe(vec.NewBitVec(64)); cands != nil {
		t.Errorf("Probe on disabled index = %+v", cands)
	}
}

// TestProbeMaskEnumeration: the sequence starts at the query's own bucket,
// enumerates every subset exactly once under an exhaustive budget, and is
// nondecreasing in total flip weight.
func TestProbeMaskEnumeration(t *testing.T) {
	tb := &table{
		bits: []int{3, 17, 42, 63, 80},
		// p = 0.9, 0.5, 0.2, 0.65, 0.05 over 100 live codes.
		ones: []int{90, 50, 20, 65, 5},
	}
	const k = 5
	masks := probeMasks(tb, 100, 1<<k)
	if len(masks) != 1<<k {
		t.Fatalf("mask count = %d, want %d", len(masks), 1<<k)
	}
	if masks[0] != 0 {
		t.Fatalf("first mask = %x, want 0 (the exact bucket)", masks[0])
	}
	seen := map[uint64]bool{}
	weight := func(m uint64) float64 {
		var s float64
		for j := 0; j < k; j++ {
			if m>>uint(j)&1 == 1 {
				p := float64(tb.ones[j]) / 100
				if p < 0.5 {
					s += 0.5 - p
				} else {
					s += p - 0.5
				}
			}
		}
		return s
	}
	prev := -1.0
	for _, m := range masks {
		if seen[m] {
			t.Fatalf("mask %x enumerated twice", m)
		}
		seen[m] = true
		if w := weight(m); w < prev-1e-12 {
			t.Fatalf("mask weights not nondecreasing: %v after %v", w, prev)
		} else {
			prev = w
		}
	}
	// The most balanced bit (index 1, p=0.5) must be the first flip.
	if masks[1] != 1<<1 {
		t.Errorf("first flip mask = %x, want %x (the most balanced bit)", masks[1], uint64(1<<1))
	}
	// A truncated budget is a prefix of the exhaustive sequence.
	short := probeMasks(tb, 100, 7)
	for i, m := range short {
		if masks[i] != m {
			t.Errorf("budgeted sequence diverges at %d: %x != %x", i, m, masks[i])
		}
	}
}

// TestDeterministicBuild: two indexes fed the same corpus in the same order
// return identical probe results.
func TestDeterministicBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	opts := Options{Tables: 4, Bits: 8, Probes: 9, Seed: 5}
	a, b := New(opts), New(opts)
	var codes []vec.BitVec
	for i := 0; i < 300; i++ {
		codes = append(codes, randCode(rng, 96))
	}
	for i, c := range codes {
		key := fmt.Sprintf("k%03d", i)
		if err := a.AddAll(key, []vec.BitVec{c}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddAll(key, []vec.BitVec{c}); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 20; qi++ {
		q := flip(rng, codes[rng.Intn(len(codes))], 0.05)
		ca, _ := a.Probe(q)
		cb, _ := b.Probe(q)
		if len(ca) != len(cb) {
			t.Fatalf("candidate counts differ: %d != %d", len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("candidate %d differs: %+v != %+v", i, ca[i], cb[i])
			}
		}
	}
}

// TestConcurrentProbeAndMutate drives probes against a mutating index under
// the race detector.
func TestConcurrentProbeAndMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ix := New(Options{Tables: 4, Bits: 8, Probes: 9, Seed: 1})
	var codes []vec.BitVec
	for i := 0; i < 200; i++ {
		c := randCode(rng, 64)
		codes = append(codes, c)
		if err := ix.AddAll(fmt.Sprintf("k%03d", i), []vec.BitVec{c}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		mrng := rand.New(rand.NewSource(22))
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("k%03d", mrng.Intn(200))
			switch mrng.Intn(3) {
			case 0:
				ix.Remove(key)
			case 1:
				_ = ix.AddAll(key, []vec.BitVec{randCode(mrng, 64)})
			default: // a compaction at an arbitrary point, beside the self-triggered ones
				ix.mu.Lock()
				ix.compactLocked()
				ix.mu.Unlock()
			}
		}
	}()
	qrng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		cands, _ := ix.Probe(randCode(qrng, 64))
		if !sort.SliceIsSorted(cands, func(a, b int) bool { return cands[a].Slot < cands[b].Slot }) {
			t.Fatal("candidates out of slot order")
		}
	}
	<-done
}

// TestOverwriteChurnIsBounded: the index bounds its own tombstones. One key
// overwritten ten thousand times — no caller ever compacting — leaves the
// flat block, the slot tables and the buckets sized by the live set, and
// probes still see exactly the live codes.
func TestOverwriteChurnIsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ix := New(exhaustive(2, 4))
	const perKey, nbits = 5, 128
	draw := func() []vec.BitVec {
		cs := make([]vec.BitVec, perKey)
		for i := range cs {
			cs[i] = randCode(rng, nbits)
		}
		return cs
	}
	if err := ix.AddAll("still", draw()); err != nil {
		t.Fatal(err)
	}
	var last []vec.BitVec
	for i := 0; i < 10000; i++ {
		last = draw()
		if err := ix.AddAll("churned", last); err != nil {
			t.Fatal(err)
		}
		if st := ix.IndexStats(); st.Dead > st.Live {
			t.Fatalf("overwrite %d: %d dead > %d live", i, st.Dead, st.Live)
		}
	}
	live := ix.Live()
	if live != 2*perKey {
		t.Fatalf("Live = %d, want %d", live, 2*perKey)
	}
	const slack = perKey // one key's codes, mid-mutation
	if got, max := len(ix.codes), (2*live+slack)*ix.wordsPer; got > max {
		t.Errorf("flat block holds %d words after the churn, want <= %d", got, max)
	}
	if got, max := cap(ix.codes), 4*(2*live+slack)*ix.wordsPer; got > max {
		t.Errorf("flat block capacity %d words after the churn, want <= %d", got, max)
	}
	if got := len(ix.keys); got > 2*live+slack {
		t.Errorf("%d slots after the churn, want <= %d", got, 2*live+slack)
	}
	entries := 0
	for _, tb := range ix.tables {
		for _, b := range tb.buckets {
			entries += len(b)
		}
	}
	if max := len(ix.tables) * (2*live + slack); entries > max {
		t.Errorf("%d bucket entries after the churn, want <= %d", entries, max)
	}
	cands, _ := ix.Probe(last[0])
	if len(cands) != live {
		t.Fatalf("exhaustive probe returned %d candidates, want the %d live codes", len(cands), live)
	}
	hit := false
	for _, c := range cands {
		hit = hit || (c.Key == "churned" && c.Dist == 0)
	}
	if !hit {
		t.Error("the last overwrite's code is not among the candidates")
	}
}
