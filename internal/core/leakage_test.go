package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"mie/internal/obs"
)

// TestLeakageSummaryCounts drives updates, repeated searches and gets
// through a repository and checks the aggregate leakage profile — the
// quantities Table I says MIE reveals, counted.
func TestLeakageSummaryCounts(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("leakrepo", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	// The counters live in the process-wide registry and outlive the
	// repository, so under -count=N they are compared against their start.
	reg := obs.Default()
	repeats := reg.Counter(obs.L("repo_leak_search_repeats_total", "repo", "leakrepo"))
	mass := reg.Counter(obs.L("repo_leak_update_token_mass_total", "repo", "leakrepo"))
	reveals := reg.Counter(obs.L("repo_leak_access_reveals_total", "repo", "leakrepo"))
	repeats0, mass0, reveals0 := repeats.Value(), mass.Value(), reveals.Value()

	add := func(id, text string) {
		t.Helper()
		up, err := c.PrepareUpdate(&Object{ID: id, Text: text}, testDataKey(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.UpdateContext(context.Background(), up); err != nil {
			t.Fatal(err)
		}
	}
	// "beach" appears in both objects (mass 3 total), "sunset" and "storm"
	// once each: 3 distinct token ids, token mass 5.
	add("o1", "beach beach sunset")
	add("o2", "beach storm")

	search := func(text string) []SearchHit {
		t.Helper()
		q, err := c.PrepareQuery(&Object{ID: "q", Text: text}, 5)
		if err != nil {
			t.Fatal(err)
		}
		hits, err := r.SearchContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	hits1 := search("beach")  // first sighting of the beach token
	hits2 := search("beach")  // repeat: the server links the two queries
	hits3 := search("sunset") // second distinct search token

	sum := r.leak.Summary()
	if sum.Updates != 2 || sum.Searches != 3 {
		t.Errorf("ops = %d updates %d searches", sum.Updates, sum.Searches)
	}
	if sum.DistinctUpdateTokens != 3 {
		t.Errorf("distinct update tokens = %d, want 3", sum.DistinctUpdateTokens)
	}
	if sum.UpdateTokenMass != 5 {
		t.Errorf("update token mass = %d, want 5", sum.UpdateTokenMass)
	}
	if sum.DistinctSearchTokens != 2 {
		t.Errorf("distinct search tokens = %d, want 2", sum.DistinctSearchTokens)
	}
	if sum.SearchTokenRepeats != 1 {
		t.Errorf("search token repeats = %d, want 1", sum.SearchTokenRepeats)
	}
	// Every returned hit reveals ID(d); a Get reveals it again.
	wantReveals := uint64(len(hits1) + len(hits2) + len(hits3))
	if _, _, err := r.Get("o1"); err != nil {
		t.Fatal(err)
	}
	wantReveals++
	sum = r.leak.Summary()
	if sum.AccessReveals != wantReveals {
		t.Errorf("access reveals = %d, want %d", sum.AccessReveals, wantReveals)
	}
	if sum.DistinctObjectsAccessed < 1 || sum.DistinctObjectsAccessed > 2 {
		t.Errorf("distinct objects accessed = %d", sum.DistinctObjectsAccessed)
	}

	// The same quantities must be visible as metrics for /metrics scrapes.
	if got := repeats.Value() - repeats0; got != 1 {
		t.Errorf("repo_leak_search_repeats_total = %d, want 1", got)
	}
	if got := mass.Value() - mass0; got != 5 {
		t.Errorf("repo_leak_update_token_mass_total = %d, want 5", got)
	}
	if got := reg.Gauge(obs.L("repo_leak_distinct_search_tokens", "repo", "leakrepo")).Value(); got != 2 {
		t.Errorf("repo_leak_distinct_search_tokens = %d, want 2", got)
	}
	if got := reveals.Value() - reveals0; got != int64(wantReveals) {
		t.Errorf("repo_leak_access_reveals_total = %d, want %d", got, wantReveals)
	}

	// And through the service aggregation used by /debug/leakage.
	svc := openMem(t)
	t.Cleanup(func() { _ = svc.Close() })
	r2, err := svc.CreateRepository("svc-repo", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	up, err := c.PrepareUpdate(&Object{ID: "x", Text: "hello"}, testDataKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.UpdateContext(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	sums := svc.LeakageSummaries()
	if got := sums["svc-repo"]; got.Updates != 1 || got.DistinctUpdateTokens != 1 {
		t.Errorf("service summary = %+v", got)
	}
}

// TestLeakageLedgerIsBounded drives 10⁵ updates, overwrites, removes,
// searches and gets over 64 ids and a 200-word vocabulary. The ledger must
// stay within the vocabulary and the live ids, and the live heap must not
// grow with the operation count.
func TestLeakageLedgerIsBounded(t *testing.T) {
	const ids, vocab, ops, warm = 64, 200, 100_000, 10_000
	c := testClient(t)
	r, err := NewRepository("bounded", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	rng := rand.New(rand.NewSource(12))
	text := func(n int) string {
		var b strings.Builder
		for ; n > 0; n-- {
			fmt.Fprintf(&b, "word%03d ", rng.Intn(vocab))
		}
		return b.String()
	}
	ups := make([]*Update, 32)
	for i := range ups {
		if ups[i], err = c.PrepareUpdate(&Object{ID: "pool", Owner: "u", Text: text(12)}, testDataKey(3)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]*Query, 32)
	for i := range queries {
		if queries[i], err = c.PrepareQuery(&Object{ID: "q", Text: text(2)}, 5); err != nil {
			t.Fatal(err)
		}
	}
	var heapAtWarm uint64
	for i := 0; i < ops; i++ {
		if i == warm {
			heapAtWarm = liveHeap()
		}
		id := fmt.Sprintf("obj-%02d", rng.Intn(ids))
		switch roll := rng.Intn(10); {
		case roll < 5:
			up := *ups[rng.Intn(len(ups))]
			up.ObjectID = id
			err = r.UpdateContext(context.Background(), &up)
		case roll < 6:
			err = r.RemoveContext(context.Background(), id)
		case roll < 9:
			_, err = r.SearchContext(context.Background(), queries[rng.Intn(len(queries))])
		default:
			if _, _, err = r.Get(id); errors.Is(err, ErrUnknownObject) {
				err = nil
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	growth := int64(liveHeap()) - int64(heapAtWarm)
	t.Logf("live heap growth %d B", growth)

	l := r.leak
	l.mu.Lock()
	updateTokens, searchTokens, accessed := len(l.updateTokens), len(l.searchTokens), len(l.accessed)
	l.mu.Unlock()
	if updateTokens > vocab || searchTokens > vocab {
		t.Errorf("token maps hold %d update and %d search tokens, vocabulary is %d", updateTokens, searchTokens, vocab)
	}
	if live := r.objects.Len(); accessed > live {
		t.Errorf("accessed holds %d ids, %d are live", accessed, live)
	}
	if sum := l.Summary(); sum.Updates+sum.Removes+sum.Searches == 0 || sum.AccessReveals == 0 {
		t.Fatalf("trace exercised nothing: %+v", sum)
	}
	if growth >= 1<<20 {
		t.Errorf("live heap grew %d B between operation %d and %d", growth, warm, ops)
	}
}

// TestWinnerRemovedBeforeCollectIsNotRevealed: a winner the lookup returned
// but a Remove took before the collect step is not returned, and the ledger
// does not count it — the access reveals grow by the hits returned and no
// more, the retired-id count and the other ids' counts stay put, and the
// removed id holds none — untrained and trained.
func TestWinnerRemovedBeforeCollectIsNotRevealed(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("ledger-race", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	add := func(id, text string) {
		t.Helper()
		up, err := c.PrepareUpdate(&Object{ID: id, Text: text}, testDataKey(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.UpdateContext(context.Background(), up); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		add(fmt.Sprintf("o%d", i), "beach sunset harbor")
	}
	q, err := c.PrepareQuery(&Object{ID: "q", Text: "zebra beach"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const victim = "victim"
	for _, stage := range []string{"untrained", "trained"} {
		add(victim, "zebra zebra zebra") // the only zebra: the top winner
		if stage == "trained" {
			if err := r.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		st := r.state.Load()
		top, err := r.searchModality(st, 0, st.engines[0], q, q.K)
		if err != nil || len(top) == 0 || top[0].Doc != victim {
			t.Fatalf("%s: text lookup = %v, %v; want %s first", stage, top, err, victim)
		}

		r.leak.mu.Lock()
		reveals, retired, accessed := r.leak.accessReveals, r.leak.retiredObjects, maps.Clone(r.leak.accessed)
		r.leak.mu.Unlock()
		SetSearchCollectHook(func() {
			if err := r.RemoveContext(context.Background(), victim); err != nil {
				t.Error(err)
			}
		})
		hits, err := r.SearchContext(context.Background(), q)
		SetSearchCollectHook(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			accessed[h.ObjectID]++
			if h.ObjectID == victim {
				t.Errorf("%s: the removed winner was returned", stage)
			}
		}
		if len(hits) == 0 {
			t.Fatalf("%s: no hit survived the remove", stage)
		}
		r.leak.mu.Lock()
		if got, want := r.leak.accessReveals, reveals+uint64(len(hits)); got != want {
			t.Errorf("%s: access reveals = %d, want %d", stage, got, want)
		}
		if r.leak.retiredObjects != retired {
			t.Errorf("%s: retired objects = %d, want %d", stage, r.leak.retiredObjects, retired)
		}
		if !maps.Equal(r.leak.accessed, accessed) {
			t.Errorf("%s: accessed ids = %v, want %v", stage, r.leak.accessed, accessed)
		}
		r.leak.mu.Unlock()
	}
}
