package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/wire"
)

// metricValue extracts the value of one exact metric line from a plain-text
// exposition body; -1 if absent.
func metricValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

func TestAuthorizerDeniesEveryKind(t *testing.T) {
	reg := obs.NewRegistry()
	deny := func(repoID, token string) (string, error) { return "", errors.New("denied: no token") }
	srv, err := New("127.0.0.1:0", memSvc(t), nil, WithAuthorizer(deny), WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	for kind, st := range failEveryKind(t, srv, func(string) string { return "locked" }, wire.ErrCodeUnspecified) {
		if !strings.Contains(st.Err, "denied") {
			t.Errorf("%s deny: err = %q", kind, st.Err)
		}
		if got := reg.Counter(obs.L("server_request_errors_total", "kind", kind)).Value(); got != 1 {
			t.Errorf("error counter for %s = %d, want 1", kind, got)
		}
	}
	if got := reg.Counter("server_authz_denials_total").Value(); got != int64(len(handlers)) {
		t.Errorf("authz denials = %d, want %d", got, len(handlers))
	}
}

func TestUnknownKindErrorResponseBody(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New("127.0.0.1:0", memSvc(t), nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A kind the protocol defines but a server does not serve as a request.
	sendFrame(t, raw, wire.KindAck, 1, wire.Ack{})
	env, _, err := wire.ReadFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != wire.KindError || env.ID != 1 {
		t.Fatalf("kind = %s id %d, want %s echoing id 1", env.Kind, env.ID, wire.KindError)
	}
	var ack wire.Ack
	if err := env.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ack.Err, "unknown kind: ack") {
		t.Errorf("error body = %q", ack.Err)
	}
	if got := reg.Counter(obs.L("server_request_errors_total", "kind", wire.KindAck)).Value(); got != 1 {
		t.Errorf("unknown-kind error counter = %d, want 1", got)
	}
	// The connection stays usable after an unknown kind (one error response,
	// no abort).
	sendFrame(t, raw, wire.KindRemove, 2, wire.RemoveReq{RepoID: "missing", ObjectID: "o"})
	if env, _, err = wire.ReadFrame(raw); err != nil || env.Kind != wire.KindAck {
		t.Errorf("follow-up request after unknown kind: env=%v err=%v", env, err)
	}
}

func TestMalformedFramesCountedDistinctly(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New("127.0.0.1:0", memSvc(t), nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	// expectDrop sends bytes on a fresh connection and waits for the server
	// to hang up on them.
	expectDrop := func(what string, data []byte) {
		t.Helper()
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if _, err := raw.Write(data); err != nil {
			t.Fatal(err)
		}
		_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: the server did not drop the connection (%v)", what, err)
		}
	}
	// claiming is a well-formed frame whose length field claims size bytes.
	claiming := func(kind string, payload interface{}, size uint32) []byte {
		var frame bytes.Buffer
		sendFrame(t, &frame, kind, 1, payload)
		binary.BigEndian.PutUint32(frame.Bytes(), size)
		return frame.Bytes()
	}

	// Bytes that are no frame at all: a previous protocol's peer, or noise.
	expectDrop("garbage", []byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef})
	// A length beyond what any kind may claim.
	expectDrop("oversized frame", claiming(wire.KindUpdate, wire.UpdateReq{}, wire.MaxFrameSize+1)[:6])
	// A length beyond what this kind may claim, refused from its first
	// 16 bytes without allocating for it.
	expectDrop("200 MiB cancel", claiming(wire.KindCancel, wire.CancelReq{ID: 1}, 200<<20)[:16])

	// An update may be that large; one that sends 1 KiB and hangs up is a
	// transport failure, not a malformed frame.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(append(claiming(wire.KindUpdate, wire.UpdateReq{}, 200<<20), make([]byte, 1024)...)); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()

	// A clean disconnect must not move either abort counter.
	raw3, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_ = raw3.Close()

	deadline := time.Now().Add(2 * time.Second)
	for (reg.Counter("server_malformed_frames_total").Value() < 3 || reg.Counter("server_read_errors_total").Value() < 1) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("server_malformed_frames_total").Value(); got != 3 {
		t.Errorf("malformed frames = %d, want 3", got)
	}
	if got := reg.Counter("server_read_errors_total").Value(); got != 1 {
		t.Errorf("read errors = %d, want 1 (the cut update; malformed and EOF are not read errors)", got)
	}
}

// flakyListener fails Accept a fixed number of times, then hands out queued
// connections, then blocks until closed — the EMFILE-under-load shape.
type flakyListener struct {
	mu     sync.Mutex
	fails  int
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, errors.New("accept tcp: too many open files")
	}
	l.mu.Unlock()
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	reg := obs.NewRegistry()
	fl := &flakyListener{fails: 3, conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	s := &Server{
		svc:    memSvc(t),
		logger: obs.OrDiscard(nil),
		reg:    reg,
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.initMetrics()
	s.listener = fl
	s.wg.Add(1)
	go s.acceptLoop()

	// The loop must survive the transient errors and still serve the
	// connection queued behind them.
	srvEnd, cliEnd := net.Pipe()
	fl.conns <- srvEnd
	done := make(chan error, 1)
	go func() {
		req, err := wire.NewEnvelope(wire.KindRemove, "", 1, 0, wire.RemoveReq{RepoID: "missing", ObjectID: "o"})
		if err == nil {
			_, err = wire.WriteEnvelope(cliEnd, req)
		}
		if err != nil {
			done <- err
			return
		}
		env, _, err := wire.ReadFrame(cliEnd)
		if err == nil && env.Kind != wire.KindAck {
			err = fmt.Errorf("kind = %s, want ack", env.Kind)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("round trip after accept errors: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop never served the connection: it likely exited on a transient error")
	}
	if got := reg.Counter("server_accept_errors_total").Value(); got != 3 {
		t.Errorf("accept errors = %d, want 3", got)
	}
	_ = cliEnd.Close()
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestMetricsEndpointReflectsSearchRoundTrip(t *testing.T) {
	// The acceptance-criteria flow: a served Update+Train+Search sequence
	// must be visible on /metrics — per-kind request counters, latency
	// histogram counts and train/index/search phase timings. The server and
	// engine record into the process-wide default registry, which is what
	// mie-server's -debug-addr endpoint exposes.
	srv := startServer(t)
	dbg, err := obs.ServeDebug("127.0.0.1:0", obs.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dbg.Close() })

	conn := dial(t, srv, nil)
	cc := newCoreClient(t, nil)
	// The registry is process-global and other tests legitimately provoke
	// search errors, so assert the error counter over this flow only.
	searchErrs0 := obs.Default().Counter(obs.L("server_request_errors_total", "kind", "search")).Value()
	if err := conn.CreateRepository(testCtx, "metrics-e2e", smallOpts()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		obj := &core.Object{
			ID:    fmt.Sprintf("m-%d", i),
			Owner: "alice",
			Text:  "observable beach sunset",
			Image: classImage(0, int64(i)),
		}
		up, err := cc.PrepareUpdate(obj, dataKey())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Update(testCtx, "metrics-e2e", up); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Train(testCtx, "metrics-e2e"); err != nil {
		t.Fatal(err)
	}
	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "beach sunset"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Search(testCtx, "metrics-e2e", q); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + dbg.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, name := range []string{
		`server_requests_total{kind="search"}`,
		`server_requests_total{kind="update"}`,
		`server_requests_total{kind="train-start"}`,
		`server_requests_total{kind="train-wait"}`,
		`server_request_seconds_count{kind="search"}`,
		`server_rx_bytes_total`,
		`server_tx_bytes_total`,
		`phase_seconds_count{phase="rpc/search/decode"}`,
		`phase_seconds_count{phase="rpc/search/engine"}`,
		`phase_seconds_count{phase="repo/train"}`,
		`phase_seconds_count{phase="repo/train/build_indexes"}`,
		`phase_seconds_count{phase="repo/search"}`,
		`phase_seconds_count{phase="repo/search/fusion"}`,
		`phase_seconds_count{phase="repo/update"}`,
		`repo_objects{repo="metrics-e2e"}`,
	} {
		if v := metricValue(body, name); v <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, v)
		}
	}
	// No request failed in this flow.
	searchErrs := obs.Default().Counter(obs.L("server_request_errors_total", "kind", "search")).Value()
	if d := searchErrs - searchErrs0; d > 0 {
		t.Errorf("search errors grew by %d during this flow, want 0", d)
	}
}
