package core_test

import (
	"context"
	"math"
	"testing"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/leakcheck"
	"mie/internal/server"
)

// TestSearchHugeK: k arrives unbounded off the wire, and a k so large that
// the fusion depth 10·k does not fit an int answers exactly what k = 2⁴⁰
// answers — every object that ranks — before and after training, in process
// and from a client through a server.
func TestSearchHugeK(t *testing.T) {
	leakcheck.Check(t)
	const repoID = "huge-k"
	svc, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	srv, err := server.New("127.0.0.1:0", svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	conn, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	ctx := context.Background()

	if err := conn.CreateRepository(ctx, repoID, core.SmallRepoOptions()); err != nil {
		t.Fatal(err)
	}
	c := core.TestClient(t)
	for class := 0; class < 3; class++ {
		for n := 0; n < 5; n++ {
			up, err := c.PrepareUpdate(core.TestObject(class, n), core.TestDataKey(3))
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Update(ctx, repoID, up); err != nil {
				t.Fatal(err)
			}
		}
	}
	repo, err := svc.Repository(repoID)
	if err != nil {
		t.Fatal(err)
	}
	// Shifts, not constants, so the file still builds where int has 32 bits.
	big, bigger := 40, 62
	q, err := c.PrepareQuery(core.TestObject(1, 99), 1<<big)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		q.K = 1 << big
		want, err := repo.SearchContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: k = 2^%d: %v", stage, big, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: k = 2^%d found nothing", stage, big)
		}
		for _, k := range []int{1 << bigger, math.MaxInt} {
			q.K = k
			local, err := repo.SearchContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: k = %d in process: %v", stage, k, err)
			}
			remote, err := conn.Search(ctx, repoID, q)
			if err != nil {
				t.Fatalf("%s: k = %d over the wire: %v", stage, k, err)
			}
			for path, got := range map[string][]core.SearchHit{"in process": local, "over the wire": remote} {
				if !sameHits(got, want) {
					t.Errorf("%s: k = %d %s: %d hits, want the %d of k = 2^%d", stage, k, path, len(got), len(want), big)
				}
			}
		}
	}
	check("untrained")
	if err := conn.Train(ctx, repoID); err != nil {
		t.Fatal(err)
	}
	check("trained")
}

// sameHits reports whether two rankings agree in ids and score bits.
func sameHits(a, b []core.SearchHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ObjectID != b[i].ObjectID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
