package core

import (
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
		if err := r.Update(up); err != nil {
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
		hits, err := r.Search(q)
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
	if err := r2.Update(up); err != nil {
		t.Fatal(err)
	}
	sums := svc.LeakageSummaries()
	if got := sums["svc-repo"]; got.Updates != 1 || got.DistinctUpdateTokens != 1 {
		t.Errorf("service summary = %+v", got)
	}
}
