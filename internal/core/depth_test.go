package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/leakcheck"
	"mie/internal/server"
)

// TestLoneModalityDepthAnswersAsDeep: a query that carries one modality asks
// its index (or, untrained, its linear scan) for k candidates instead of
// 10·k. It must answer exactly what the same objects answer with the fusion
// depth set to 10·k — ids, owners, ciphertexts, score bits and order — for
// text-only and image-only queries, untrained and trained, in process and
// from a client through a server. A repository's depth is fixed at create,
// so the two depths are two repositories fed the same updates; the queries'
// classes hold identical texts, so text scores tie in bulk.
func TestLoneModalityDepthAnswersAsDeep(t *testing.T) {
	leakcheck.Check(t)
	const maxK = 3
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

	deepOpts := core.SmallRepoOptions()
	deepOpts.FusionCandidates = 10 * maxK
	repos := map[string]core.RepositoryOptions{"lone": core.SmallRepoOptions(), "deep": deepOpts}
	for id, opts := range repos {
		if err := conn.CreateRepository(ctx, id, opts); err != nil {
			t.Fatal(err)
		}
	}
	c := core.TestClient(t)
	for class := 0; class < 3; class++ {
		for n := 0; n < 6; n++ {
			up, err := c.PrepareUpdate(core.TestObject(class, n), core.TestDataKey(3))
			if err != nil {
				t.Fatal(err)
			}
			for id := range repos {
				if err := conn.Update(ctx, id, up); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	lone, err := svc.Repository("lone")
	if err != nil {
		t.Fatal(err)
	}
	deep, err := svc.Repository("deep")
	if err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		for class := 0; class < 3; class++ {
			obj := core.TestObject(class, 99)
			text, image := *obj, *obj
			text.Image, image.Text = nil, ""
			for modality, obj := range map[string]*core.Object{"text": &text, "image": &image} {
				for k := 1; k <= maxK; k++ {
					q, err := c.PrepareQuery(obj, k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := deep.SearchContext(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					if len(want) != k {
						t.Fatalf("%s: %s query of class %d: %d hits at depth %d, want k = %d", stage, modality, class, len(want), 10*maxK, k)
					}
					local, err := lone.SearchContext(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					remote, err := conn.Search(ctx, "lone", q)
					if err != nil {
						t.Fatal(err)
					}
					for path, got := range map[string][]core.SearchHit{"in process": local, "over the wire": remote} {
						if err := identicalHits(got, want); err != nil {
							t.Errorf("%s: %s query of class %d, k = %d, %s: %v", stage, modality, class, k, path, err)
						}
					}
				}
			}
		}
	}
	check("untrained")
	for id := range repos {
		if err := conn.Train(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	check("trained")
}

// identicalHits reports how got differs from want in ids, owners,
// ciphertexts, score bits or order.
func identicalHits(got, want []core.SearchHit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ObjectID != w.ObjectID || g.Owner != w.Owner || !bytes.Equal(g.Ciphertext, w.Ciphertext) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("hit %d is %s (owner %s, score %v), want %s (owner %s, score %v)", i, g.ObjectID, g.Owner, g.Score, w.ObjectID, w.Owner, w.Score)
		}
	}
	return nil
}
