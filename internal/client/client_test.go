package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/device"
	"mie/internal/leakcheck"
	"mie/internal/obs"
	"mie/internal/wire"
)

var bg = context.Background()

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil); err == nil {
		t.Error("expected connection error for closed port")
	}
}

// answerHello serves the handshake half of a fake server: it reads the
// hello and answers it the way a real node does.
func answerHello(conn net.Conn) bool {
	env, _, err := wire.ReadFrame(conn)
	if err != nil || env.Kind != wire.KindHello {
		return false
	}
	reply, _ := wire.AnswerHello(env, wire.HelloResp{})
	_, err = wire.WriteEnvelope(conn, reply)
	return err == nil
}

// reply answers one request with the given kind and payload, echoing its id.
func reply(conn net.Conn, req *wire.Envelope, kind string, payload interface{}) error {
	env, err := wire.NewEnvelope(kind, "", req.ID, 0, payload)
	if err == nil {
		_, err = wire.WriteEnvelope(conn, env)
	}
	return err
}

// echoServe answers every request on conn with the given kind and payload
// until the peer hangs up.
func echoServe(conn net.Conn, kind string, payload interface{}) {
	for {
		req, _, err := wire.ReadFrame(conn)
		if err != nil || reply(conn, req, kind, payload) != nil {
			return
		}
	}
}

// fakeServer accepts connections, completes the handshake and answers
// every request with the given envelope kind/payload.
func fakeServer(t *testing.T, kind string, payload interface{}) string {
	t.Helper()
	return fakeConnServer(t, func(_ int32, conn net.Conn) { echoServe(conn, kind, payload) })
}

// fakeConnServer accepts connections, completes the handshake on each and
// hands it to serve along with its 1-based accept order.
func fakeConnServer(t *testing.T, serve func(n int32, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var accepts int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := atomic.AddInt32(&accepts, 1)
			go func() {
				defer conn.Close()
				if answerHello(conn) {
					serve(n, conn)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// fakeMuxServer serves exactly one connection.
func fakeMuxServer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	return fakeConnServer(t, func(n int32, conn net.Conn) {
		if n == 1 {
			serve(conn)
		}
	})
}

func TestServerErrorKindSurfaced(t *testing.T) {
	addr := fakeServer(t, wire.KindError, wire.Ack{Status: wire.Status{Err: "nope"}})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Train(bg, "r")
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("err = %v, want server error text", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Errorf("server-reported error not a RemoteError: %T", err)
	}
}

func TestAckErrorSurfaced(t *testing.T) {
	addr := fakeServer(t, wire.KindAck, wire.Ack{Status: wire.Status{Err: "repository not found: x"}})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Remove(bg, "x", "obj"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("err = %v", err)
	}
}

func TestSearchRespError(t *testing.T) {
	addr := fakeServer(t, wire.KindSearchResp, wire.SearchResp{Status: wire.Status{Err: "boom"}})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Search(bg, "r", &core.Query{K: 1}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestGetRespError(t *testing.T) {
	addr := fakeServer(t, wire.KindGetResp, wire.GetResp{Status: wire.Status{Err: "missing"}})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get(bg, "r", "obj"); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("err = %v", err)
	}
}

func TestConnClosedMidRequest(t *testing.T) {
	leakcheck.Check(t)
	addr := fakeConnServer(t, func(_ int32, conn net.Conn) {
		_, _, _ = wire.ReadFrame(conn) // take the request, hang up without answering
	})
	c, err := Dial(addr, device.NewMeter(device.Desktop))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Train(bg, "r"); err == nil {
		t.Error("expected error after server hangup")
	}
}

// TestDialRefusedByVersion: a peer that cannot speak this protocol fails the
// dial with a typed error — whether it says so (an error frame carrying
// ErrCodeUnsupportedVersion), selects another version, or just hangs up the
// way a pre-v3 server does on bytes it cannot parse. It never hangs.
func TestDialRefusedByVersion(t *testing.T) {
	serveRaw := func(answer func(conn net.Conn, hello *wire.Envelope)) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				if hello, _, err := wire.ReadFrame(conn); err == nil {
					answer(conn, hello)
				}
				_ = conn.Close()
			}
		}()
		return ln.Addr().String()
	}
	refuses := serveRaw(func(conn net.Conn, hello *wire.Envelope) {
		_ = reply(conn, hello, wire.KindError, wire.Ack{Status: wire.Status{Err: "too new for me", Code: wire.ErrCodeUnsupportedVersion}})
	})
	selectsOther := serveRaw(func(conn net.Conn, hello *wire.Envelope) {
		_ = reply(conn, hello, wire.KindHelloResp, wire.HelloResp{Version: wire.ProtocolVersion + 1})
	})
	hangsUp := serveRaw(func(net.Conn, *wire.Envelope) {})
	for name, addr := range map[string]string{"refuses": refuses, "selects another version": selectsOther} {
		if _, err := Dial(addr, nil); !errors.Is(err, wire.ErrUnsupportedVersion) {
			t.Errorf("%s: dial err = %v, want ErrUnsupportedVersion", name, err)
		}
		if _, err := Hello(addr, time.Second); !errors.Is(err, wire.ErrUnsupportedVersion) {
			t.Errorf("%s: probe err = %v, want ErrUnsupportedVersion", name, err)
		}
	}
	if _, err := Dial(hangsUp, nil); err == nil {
		t.Error("dial succeeded against a peer that hung up on the hello")
	}
}

func TestSetTokenIsAttached(t *testing.T) {
	gotAuth := make(chan string, 1)
	addr := fakeMuxServer(t, func(conn net.Conn) {
		env, _, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		gotAuth <- env.Auth
		_ = reply(conn, env, wire.KindAck, wire.Ack{})
		_, _, _ = wire.ReadFrame(conn) // hold the connection until the client hangs up
	})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken("bearer-xyz")
	if err := c.Remove(bg, "r", "o"); err != nil {
		t.Fatal(err)
	}
	if auth := <-gotAuth; auth != "bearer-xyz" {
		t.Errorf("server saw auth %q", auth)
	}
}

func TestMuxInterleavedResponses(t *testing.T) {
	leakcheck.Check(t)
	// 100 concurrent callers share one connection. The server collects every
	// request before answering any, then replies in a shuffled order — the
	// demux must still route each response to the caller whose ID it echoes.
	const callers = 100
	addr := fakeMuxServer(t, func(conn net.Conn) {
		envs := make([]*wire.Envelope, 0, callers)
		for len(envs) < callers {
			env, _, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			envs = append(envs, env)
		}
		rng := rand.New(rand.NewSource(7))
		rng.Shuffle(len(envs), func(i, j int) { envs[i], envs[j] = envs[j], envs[i] })
		for _, env := range envs {
			var req wire.SearchReq
			if err := env.Decode(&req); err != nil {
				return
			}
			resp, err := wire.NewEnvelope(wire.KindSearchResp, "", env.ID, 0,
				wire.SearchResp{Hits: []core.SearchHit{{ObjectID: req.RepoID}}})
			if err != nil {
				return
			}
			if _, err := wire.WriteEnvelope(conn, resp); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			repo := fmt.Sprintf("repo-%03d", i)
			hits, err := c.Search(bg, repo, &core.Query{K: 1})
			if err != nil {
				errs <- fmt.Errorf("caller %d: %w", i, err)
				return
			}
			if len(hits) != 1 || hits[0].ObjectID != repo {
				errs <- fmt.Errorf("caller %d got %+v", i, hits)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCancelEmitsCancelFrame(t *testing.T) {
	searchID := make(chan uint64, 1)
	sawCancel := make(chan wire.CancelReq, 1)
	addr := fakeMuxServer(t, func(conn net.Conn) {
		env, _, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		searchID <- env.ID // hold the request: never answer it
		env, _, err = wire.ReadFrame(conn)
		if err != nil || env.Kind != wire.KindCancel {
			return
		}
		var cr wire.CancelReq
		if err := env.Decode(&cr); err == nil {
			sawCancel <- cr
		}
	})
	reg := obs.NewRegistry()
	c, err := Dial(addr, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := c.Search(ctx, "r", &core.Query{K: 1})
		done <- err
	}()
	var id uint64
	select {
	case id = <-searchID:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the search")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled search returned %v, want context.Canceled", err)
	}
	select {
	case cr := <-sawCancel:
		if cr.ID != id {
			t.Errorf("cancel frame names request %d, want %d", cr.ID, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never received a cancel frame")
	}
	if got := reg.Counter("client_cancel_frames_total").Value(); got != 1 {
		t.Errorf("client_cancel_frames_total = %d, want 1", got)
	}
}

func TestPoisonedConnNotReused(t *testing.T) {
	// Regression: a response cut off mid-frame leaves the TCP stream at an
	// undefined position. The connection must be poisoned and replaced — not
	// reused, where the next call would misread leftover bytes as its reply.
	var accepts int32
	addr := fakeConnServer(t, func(n int32, conn net.Conn) {
		atomic.StoreInt32(&accepts, n)
		if n > 1 {
			echoServe(conn, wire.KindAck, wire.Ack{})
			return
		}
		req, _, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		// Send all but the last bytes of the reply, then hang up.
		var frame bytes.Buffer
		ack, _ := wire.NewEnvelope(wire.KindAck, "", req.ID, 0, wire.Ack{Status: wire.Status{Err: "never fully sent"}})
		_, _ = wire.WriteEnvelope(&frame, ack)
		_, _ = conn.Write(frame.Bytes()[:frame.Len()-5])
	})
	reg := obs.NewRegistry()
	c, err := Dial(addr, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Remove(bg, "r", "o"); err == nil {
		t.Fatal("remove on the cut connection should have failed")
	}
	// The next call must run on a fresh connection and succeed.
	if err := c.Remove(bg, "r", "o"); err != nil {
		t.Fatalf("remove after poison: %v", err)
	}
	if got := atomic.LoadInt32(&accepts); got != 2 {
		t.Errorf("server saw %d connections, want 2 (poisoned conn replaced)", got)
	}
	if got := reg.Counter("client_reconnects_total").Value(); got != 1 {
		t.Errorf("client_reconnects_total = %d, want 1", got)
	}
}

func TestIdempotentCallReconnects(t *testing.T) {
	// A server that drops the first connection on its first request: Search
	// (idempotent) retries on a fresh one and succeeds without the caller
	// noticing.
	addr := fakeConnServer(t, func(n int32, conn net.Conn) {
		if n == 1 {
			_, _, _ = wire.ReadFrame(conn)
			return
		}
		echoServe(conn, wire.KindSearchResp, wire.SearchResp{Hits: []core.SearchHit{{ObjectID: "x"}}})
	})
	reg := obs.NewRegistry()
	c, err := Dial(addr, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hits, err := c.Search(bg, "r", &core.Query{K: 1})
	if err != nil {
		t.Fatalf("search did not survive the dropped connection: %v", err)
	}
	if len(hits) != 1 || hits[0].ObjectID != "x" {
		t.Errorf("hits = %+v", hits)
	}
	if got := reg.Counter("client_reconnects_total").Value(); got < 1 {
		t.Errorf("client_reconnects_total = %d, want >= 1", got)
	}
}

func TestMutationNotRetried(t *testing.T) {
	// Update is not idempotent: a transport error surfaces to the caller
	// instead of being silently re-sent.
	var accepts int32
	addr := fakeConnServer(t, func(n int32, conn net.Conn) {
		atomic.StoreInt32(&accepts, n)
		_, _, _ = wire.ReadFrame(conn) // take the update, hang up
	})
	reg := obs.NewRegistry()
	c, err := Dial(addr, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Update(bg, "r", &core.Update{}); err == nil {
		t.Fatal("update on a dropped connection should fail")
	}
	if got := reg.Counter("client_reconnects_total").Value(); got != 0 {
		t.Errorf("client_reconnects_total = %d, want 0 (mutations must not retry)", got)
	}
	if got := atomic.LoadInt32(&accepts); got != 1 {
		t.Errorf("server saw %d connections, want 1", got)
	}
}

func TestCallsAfterCloseFail(t *testing.T) {
	leakcheck.Check(t)
	addr := fakeServer(t, wire.KindAck, wire.Ack{})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := c.Search(bg, "r", &core.Query{K: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("search after close: %v, want ErrClosed", err)
	}
}
