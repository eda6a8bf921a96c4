package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/router"
)

// TestWirePathMatchesInProcess runs one seeded trace of updates, overwrites,
// removes, a train and searches twice — against a repository called
// in-process, and against one reached through client → router → server —
// and requires bit-identical hit lists: same objects in the same order, the
// same ciphertexts, and scores equal down to the last bit. The codec carries
// tokens, codes and float scores; any loss in it shows up here as a changed
// rank or score.
func TestWirePathMatchesInProcess(t *testing.T) {
	local := memSvc(t)
	localRepo, err := local.CreateRepository("parity", smallOpts())
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New("127.0.0.1:0", memSvc(t), nil, WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	rt, err := router.Start(router.Config{Nodes: []router.Node{{Name: "leader", Addr: srv.Addr()}}, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	conn, err := client.Dial(rt.Addr(), nil, client.WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.CreateRepository(testCtx, "parity", smallOpts()); err != nil {
		t.Fatal(err)
	}

	cc := newCoreClient(t, nil)
	rng := rand.New(rand.NewSource(16))
	topics := []string{"beach sand ocean waves", "mountain snow peaks trail", "city night lights traffic"}
	update := func(id string, cls int) {
		obj := &core.Object{ID: id, Owner: fmt.Sprintf("owner-%d", cls), Text: topics[cls], Image: classImage(cls, rng.Int63n(1000))}
		if rng.Intn(4) == 0 {
			obj.Image = nil // some objects are text-only
		}
		up, err := cc.PrepareUpdate(obj, dataKey())
		if err != nil {
			t.Fatal(err)
		}
		if err := localRepo.UpdateContext(testCtx, up); err != nil {
			t.Fatal(err)
		}
		if err := conn.Update(testCtx, "parity", up); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(id string) {
		if err := localRepo.RemoveContext(testCtx, id); err != nil {
			t.Fatal(err)
		}
		if err := conn.Remove(testCtx, "parity", id); err != nil {
			t.Fatal(err)
		}
	}
	search := func(stage string) {
		for q := 0; q < 6; q++ {
			cls := q % 3
			query, err := cc.PrepareQuery(&core.Object{ID: "q", Text: topics[cls], Image: classImage(cls, int64(5000+q))}, 1+rng.Intn(8))
			if err != nil {
				t.Fatal(err)
			}
			want, err := localRepo.SearchContext(testCtx, query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := conn.Search(testCtx, "parity", query)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s query %d found nothing: the trace does not exercise ranking", stage, q)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d hits over the wire, %d in-process", stage, q, len(got), len(want))
			}
			for i := range want {
				if got[i].ObjectID != want[i].ObjectID || got[i].Owner != want[i].Owner ||
					math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
					!bytes.Equal(got[i].Ciphertext, want[i].Ciphertext) {
					t.Errorf("%s query %d hit %d: wire %s/%s score %x, in-process %s/%s score %x", stage, q, i,
						got[i].ObjectID, got[i].Owner, math.Float64bits(got[i].Score),
						want[i].ObjectID, want[i].Owner, math.Float64bits(want[i].Score))
				}
			}
		}
	}

	for i := 0; i < 24; i++ {
		update(fmt.Sprintf("obj-%02d", i), i%3)
	}
	search("untrained")
	if err := localRepo.TrainContext(testCtx); err != nil {
		t.Fatal(err)
	}
	if err := conn.Train(testCtx, "parity"); err != nil {
		t.Fatal(err)
	}
	search("trained")
	for i := 0; i < 6; i++ {
		update(fmt.Sprintf("obj-%02d", rng.Intn(24)), rng.Intn(3)) // overwrites, some changing class
	}
	remove("obj-03")
	remove("obj-17")
	update("obj-late", 1)
	search("after writes")
}
