package router

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/leakcheck"
	"mie/internal/obs"
	"mie/internal/server"
	"mie/internal/wire"
)

func routerTestKey(b byte) crypto.Key {
	var k crypto.Key
	for i := range k {
		k[i] = b
	}
	return k
}

// TestRouterRoutesAndFailsOver: a two-member ring where one member is dead.
// Every request — including reads homed on the dead node — must be served by
// the surviving leader; the router must identify itself in the handshake and
// refuse replication subscriptions.
func TestRouterRoutesAndFailsOver(t *testing.T) {
	leakcheck.Check(t)
	svc, _, err := core.OpenService(core.ServiceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	srv, err := server.New("127.0.0.1:0", svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	// A dead member: a listener that is closed immediately, so its address
	// is allocated but refuses connections.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	_ = deadLn.Close()

	rt, err := Start(Config{
		Nodes:          []Node{{Name: "live", Addr: srv.Addr()}, {Name: "dead", Addr: deadAddr}},
		Leader:         "live",
		HealthInterval: 50 * time.Millisecond,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rt.Close() }()

	hr, err := client.Hello(rt.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Role != "router" || hr.Version != wire.ProtocolVersion {
		t.Fatalf("handshake %+v, want router speaking v2", hr)
	}

	// Pick one repo homed on each member so both routing paths run.
	repoFor := func(node string) string {
		for i := 0; i < 10000; i++ {
			id := fmt.Sprintf("repo-%04d", i)
			if rt.Ring().Prefer(id)[0] == node {
				return id
			}
		}
		t.Fatalf("no repo id homed on %q", node)
		return ""
	}
	repos := []string{repoFor("live"), repoFor("dead")}

	cc, err := core.NewClient(core.ClientConfig{Key: core.RepositoryKey{Master: routerTestKey(1)}})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(rt.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	ctx := context.Background()
	for _, repoID := range repos {
		if err := conn.CreateRepository(ctx, repoID, wire.RepoOptions{}); err != nil {
			t.Fatalf("create %s: %v", repoID, err)
		}
		up, err := cc.PrepareUpdate(&core.Object{ID: "o", Owner: "u", Text: "routed document"}, routerTestKey(9))
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Update(ctx, repoID, up); err != nil {
			t.Fatalf("update %s: %v", repoID, err)
		}
		q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "routed document"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		hits, err := conn.Search(ctx, repoID, q)
		if err != nil {
			t.Fatalf("search %s: %v", repoID, err)
		}
		if len(hits) != 1 || hits[0].ObjectID != "o" {
			t.Fatalf("search %s returned %v, want [o]", repoID, hits)
		}
		if _, _, err := conn.Get(ctx, repoID, "o"); err != nil {
			t.Fatalf("get %s: %v", repoID, err)
		}
	}

	// Replication streams must go to a node directly, never through the
	// router's request multiplexing.
	raw, err := net.Dial("tcp", rt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	env, err := wire.NewEnvelope(wire.KindReplSubscribe, "", 1, 0, wire.ReplSubscribeReq{RepoID: repos[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.WriteEnvelope(raw, env); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, _, err := wire.ReadFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindError {
		t.Fatalf("repl-subscribe through router answered %q, want error", resp.Kind)
	}
}
