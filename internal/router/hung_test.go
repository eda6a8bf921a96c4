package router

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/leakcheck"
	"mie/internal/obs"
	"mie/internal/server"
	"mie/internal/wire"
)

// hungMember answers the first connection's hello — the router's start-up
// probe — and then accepts connections without ever answering them. dialed
// is closed when the first silent connection arrives; release closes them
// all.
type hungMember struct {
	ln     net.Listener
	dialed chan struct{}

	mu    sync.Mutex
	conns []net.Conn
}

func startHungMember(t *testing.T) *hungMember {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := &hungMember{ln: ln, dialed: make(chan struct{})}
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if n == 0 {
				go func() {
					defer conn.Close()
					env, _, err := wire.ReadFrame(conn)
					if err == nil {
						reply, _ := wire.AnswerHello(env, wire.HelloResp{Role: "follower", CaughtUp: true})
						_, _ = wire.WriteEnvelope(conn, reply)
					}
				}()
				continue
			}
			m.mu.Lock()
			m.conns = append(m.conns, conn)
			m.mu.Unlock()
			if n == 1 {
				close(m.dialed)
			}
		}
	}()
	return m
}

func (m *hungMember) release() {
	_ = m.ln.Close()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.conns {
		_ = c.Close()
	}
}

// TestHungMemberDoesNotStallRouter: a member that passed the start-up probe
// and later accepts connections without answering holds only the relays
// addressed to it, each no longer than its deadline, and never Close.
func TestHungMemberDoesNotStallRouter(t *testing.T) {
	leakcheck.Check(t)
	svc, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	srv, err := server.New("127.0.0.1:0", svc, nil, server.WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	hung := startHungMember(t)
	defer hung.release()

	rt, err := Start(Config{
		Nodes:          []Node{{Name: "live", Addr: srv.Addr()}, {Name: "hung", Addr: hung.ln.Addr().String()}},
		Leader:         "live",
		HealthInterval: time.Hour,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	defer func() {
		go func() {
			_ = rt.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Error("Router.Close still blocked after 5s")
			hung.release()
			<-closed
		}
	}()

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
	conn, err := client.Dial(rt.Addr(), nil, client.WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	live := repoFor("live")
	if err := conn.CreateRepository(context.Background(), live, wire.RepoOptions{}); err != nil {
		t.Fatal(err)
	}

	const deadline = 2 * time.Second
	hctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	hungDone := make(chan error, 1)
	go func() {
		_, err := conn.Search(hctx, repoFor("hung"), &core.Query{K: 1})
		hungDone <- err
	}()
	select {
	case <-hung.dialed:
	case <-time.After(5 * time.Second):
		t.Fatal("the router never dialed the hung member")
	}

	lctx, lcancel := context.WithTimeout(context.Background(), time.Second)
	defer lcancel()
	if _, err := conn.Search(lctx, live, &core.Query{K: 1}); err != nil {
		t.Errorf("leader-homed search while the hung member's dial is pending: %v", err)
	}

	select {
	case <-hungDone:
		if took := time.Since(start); took > deadline+time.Second {
			t.Errorf("search homed on the hung member returned after %v, deadline %v", took, deadline)
		}
	case <-time.After(time.Until(start.Add(deadline + time.Second))):
		t.Errorf("search homed on the hung member still blocked %v after its %v deadline", time.Since(start).Round(time.Millisecond), deadline)
	}
}

// startStalledMember answers every connection's hello and then reads only
// the header of the connection's next frame, through a small receive
// buffer: a large frame to it is stuck in its sender's Write. writing is
// closed once such a frame has begun to arrive; the returned release closes
// everything.
func startStalledMember(t *testing.T) (addr string, writing <-chan struct{}, release func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	began := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
				env, _, err := wire.ReadFrame(conn)
				if err != nil {
					return
				}
				reply, _ := wire.AnswerHello(env, wire.HelloResp{Role: "leader", CaughtUp: true})
				if _, err := wire.WriteEnvelope(conn, reply); err != nil {
					return
				}
				var hdr [45]byte
				if _, err := conn.Read(hdr[:]); err == nil {
					once.Do(func() { close(began) })
				}
			}()
		}
	}()
	return ln.Addr().String(), began, func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	}
}

// TestCloseEndsRelayWritingToStalledMember: a relay with no deadline, stuck
// writing a large update to a member that has stopped reading, ends with
// Close, and Close returns.
func TestCloseEndsRelayWritingToStalledMember(t *testing.T) {
	leakcheck.Check(t)
	addr, writing, release := startStalledMember(t)
	defer release()
	rt, err := Start(Config{
		Nodes:          []Node{{Name: "stalled", Addr: addr}},
		HealthInterval: time.Hour,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(rt.Addr(), nil, client.WithObservability(obs.NewRegistry()))
	if err != nil {
		_ = rt.Close()
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	updated := make(chan error, 1)
	go func() {
		updated <- conn.Update(context.Background(), "r", &core.Update{ObjectID: "big", Ciphertext: make([]byte, 16<<20)})
	}()
	select {
	case <-writing:
	case <-time.After(5 * time.Second):
		_ = rt.Close()
		t.Fatal("the update never reached the member")
	}
	closed := make(chan struct{})
	go func() {
		_ = rt.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Error("Router.Close still blocked after 5s by a relay writing to a stalled member")
		release()
		<-closed
	}
	if err := <-updated; err == nil {
		t.Error("the update succeeded through a router that closed before the member answered")
	}
}
