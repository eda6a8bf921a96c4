package router

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/leakcheck"
	"mie/internal/obs"
	"mie/internal/wire"
)

// TestCaughtUpFollowerServesSoon: a follower the router finds reachable but
// behind is probed on the short backoff, not at the health interval, so a
// routed read reaches it within 150 ms of its hello reporting caught up. At
// the default 500 ms interval the router used to notice only at the next
// probe, about 500 ms later.
func TestCaughtUpFollowerServesSoon(t *testing.T) {
	leakcheck.Check(t)
	leader, follower := startRecordingBackend(t), startRecordingBackend(t)
	follower.behind.Store(true)
	rt, err := Start(Config{
		Nodes: []Node{
			{Name: "leader", Addr: leader.ln.Addr().String()},
			{Name: "follower", Addr: follower.ln.Addr().String()},
		},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rt.Close() }()
	repo := ""
	for i := 0; repo == ""; i++ {
		if name := fmt.Sprintf("repo-%d", i); rt.Ring().Prefer(name)[0] == "follower" {
			repo = name
		}
	}

	conn, err := net.Dial("tcp", rt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := client.Handshake(context.Background(), wire.NewFrameConn(conn)); err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	// servedByFollower routes one search and reports where it went.
	servedByFollower := func() bool {
		t.Helper()
		id++
		env, err := wire.NewEnvelope(wire.KindSearch, "", id, 10*time.Second, wire.SearchReq{RepoID: repo, Query: core.Query{K: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.WriteEnvelope(conn, env); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wire.ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
		follower.mu.Lock()
		defer follower.mu.Unlock()
		return len(follower.seen) > 0
	}

	if servedByFollower() {
		t.Fatal("a follower that is behind served a routed read")
	}
	follower.behind.Store(false)
	caughtUp := time.Now()
	for !servedByFollower() {
		if time.Since(caughtUp) > 2*time.Second {
			t.Fatal("the caught-up follower served no read within 2 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := time.Since(caughtUp); d > 150*time.Millisecond {
		t.Errorf("the caught-up follower served its first read %v after its hello said so, want at most 150ms", d.Round(time.Millisecond))
	}
}
