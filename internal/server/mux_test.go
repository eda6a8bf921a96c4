package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/wire"
)

// Multiplexing, deadlines, cancellation and negotiation over the real server.

// seedRepo creates a repository with a handful of trained-searchable objects.
func seedRepo(t *testing.T, conn *client.Conn, cc *core.Client, repoID string) {
	t.Helper()
	if err := conn.CreateRepository(testCtx, repoID, smallOpts()); err != nil {
		t.Fatal(err)
	}
	topics := []string{"beach sand ocean", "mountain snow peaks", "city night lights"}
	for cls := 0; cls < 3; cls++ {
		for i := 0; i < 3; i++ {
			obj := &core.Object{
				ID:    fmt.Sprintf("%s-c%d-%d", repoID, cls, i),
				Owner: "alice",
				Text:  topics[cls],
				Image: classImage(cls, int64(i)),
			}
			up, err := cc.PrepareUpdate(obj, dataKey())
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Update(testCtx, repoID, up); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAsyncTrainJobOverWire(t *testing.T) {
	srv := startServer(t)
	conn := dial(t, srv, nil)
	cc := newCoreClient(t, nil)
	seedRepo(t, conn, cc, "async")

	job, err := conn.TrainStart(testCtx, "async")
	if err != nil {
		t.Fatal(err)
	}
	if job.JobID == 0 {
		t.Fatal("job id must be nonzero")
	}
	// Status is queryable while or after the job runs.
	if _, err := conn.TrainStatus(testCtx, "async", job.JobID); err != nil {
		t.Fatal(err)
	}
	final, err := conn.TrainWait(testCtx, "async", job.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != core.TrainDone || final.Epoch != 1 {
		t.Fatalf("final status = %+v", final)
	}
	// The trained index serves queries.
	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "mountain peaks"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := conn.Search(testCtx, "async", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("search after async train found nothing")
	}
	// Unknown jobs are an application error, not a transport one.
	if _, err := conn.TrainStatus(testCtx, "async", 9999); err == nil ||
		!strings.Contains(err.Error(), "unknown train job") {
		t.Errorf("unknown job err = %v", err)
	}
}

func TestTrainWaitDeadlineReportsRunning(t *testing.T) {
	srv := startServer(t)
	conn := dial(t, srv, nil)
	cc := newCoreClient(t, nil)
	seedRepo(t, conn, cc, "waitdl")

	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	core.SetTrainInstallHookForTest(func() {
		entered <- struct{}{}
		<-release
	})
	t.Cleanup(func() { core.SetTrainInstallHookForTest(nil) })
	t.Cleanup(func() { close(release) })

	job, err := conn.TrainStart(testCtx, "waitdl")
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	// The wait deadline lapses while the job still runs: the server reports
	// the running status instead of failing the request.
	ctx, cancel := context.WithTimeout(testCtx, 100*time.Millisecond)
	defer cancel()
	st, err := conn.TrainWait(ctx, "waitdl", job.JobID)
	if err == nil {
		if st.State != core.TrainRunning {
			t.Errorf("state = %q, want running", st.State)
		}
	} else if !errors.Is(err, context.DeadlineExceeded) {
		// The client's own context may win the race against the server's
		// running-status reply; either outcome is acceptable, other errors
		// are not.
		t.Errorf("bounded TrainWait: %v", err)
	}
}

func TestExpiredSearchReturnsPromptlyDuringTrain(t *testing.T) {
	// The acceptance scenario: a Train job is in flight on the same
	// connection, and a Search whose context is already expired returns
	// immediately — no RPC is blocked behind training.
	srv := startServer(t)
	conn := dial(t, srv, nil)
	cc := newCoreClient(t, nil)
	seedRepo(t, conn, cc, "busy")

	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	core.SetTrainInstallHookForTest(func() {
		entered <- struct{}{}
		<-release
	})
	t.Cleanup(func() { core.SetTrainInstallHookForTest(nil) })

	job, err := conn.TrainStart(testCtx, "busy")
	if err != nil {
		t.Fatal(err)
	}
	<-entered // training is provably in flight, parked before its epoch swap

	expired, cancel := context.WithTimeout(testCtx, time.Nanosecond)
	defer cancel()
	<-expired.Done()
	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "mountain peaks"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := conn.Search(expired, "busy", q); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired search err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("expired search took %v, want prompt return", d)
	}
	// A live Search on the SAME connection is served while the Train job
	// still runs — the mux at work.
	hits, err := conn.Search(testCtx, "busy", q)
	if err != nil {
		t.Fatalf("search during train job: %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("search during train job found nothing")
	}
	close(release)
	if st, err := conn.TrainWait(testCtx, "busy", job.JobID); err != nil || st.State != core.TrainDone {
		t.Fatalf("train job completion: %+v, %v", st, err)
	}
}

func TestCancelMidSearchObservedByServer(t *testing.T) {
	// Acceptance: canceling a context mid-Search aborts the wait client-side
	// and emits a Cancel frame the server observes — asserted via the
	// server's obs counters.
	reg := obs.NewRegistry()
	srv, err := New("127.0.0.1:0", memSvc(t), nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	conn := dial(t, srv, nil)
	cc := newCoreClient(t, nil)
	seedRepo(t, conn, cc, "cancelme")
	if err := conn.Train(testCtx, "cancelme"); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	core.SetSearchStartHookForTest(func() {
		entered <- struct{}{}
		<-release
	})
	t.Cleanup(func() { core.SetSearchStartHookForTest(nil) })
	t.Cleanup(func() { close(release) })

	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "mountain peaks"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(testCtx)
	done := make(chan error, 1)
	go func() {
		_, err := conn.Search(ctx, "cancelme", q)
		done <- err
	}()
	<-entered // the search is held inside the engine
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled search returned %v, want context.Canceled", err)
	}
	// The cancel frame reaches the server asynchronously; both counters must
	// move — the frame arrived, and it named a request still in flight.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("server_cancel_frames_total").Value() >= 1 &&
			reg.Counter("server_cancel_hits_total").Value() >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("server_cancel_frames_total").Value(); got < 1 {
		t.Errorf("server_cancel_frames_total = %d, want >= 1", got)
	}
	if got := reg.Counter("server_cancel_hits_total").Value(); got < 1 {
		t.Errorf("server_cancel_hits_total = %d, want >= 1 (cancel must name an in-flight request)", got)
	}
}

// TestHelloNegotiatesV2 keeps its historical name; what it pins today is the
// protocol-3 handshake: the server selects wire.ProtocolVersion, and a peer
// that cannot speak it gets a typed, counted refusal on a connection that
// stays open — never silence.
func TestHelloNegotiatesV2(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New("127.0.0.1:0", memSvc(t), nil, WithObservability(reg),
		WithNodeStatus(func() NodeStatus { return NodeStatus{Role: "leader", CaughtUp: true} }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	hr, err := client.Hello(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if hr != (wire.HelloResp{Version: wire.ProtocolVersion, Role: "leader", CaughtUp: true}) {
		t.Errorf("hello response = %+v", hr)
	}

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sendFrame(t, raw, wire.KindHello, 7, wire.Hello{MaxVersion: wire.ProtocolVersion - 1})
	env, _, err := wire.ReadFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.Ack
	if err := env.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if env.Kind != wire.KindError || env.ID != 7 || ack.Code != wire.ErrCodeUnsupportedVersion {
		t.Errorf("old peer got %s id %d %+v, want an unsupported-version error echoing id 7", env.Kind, env.ID, ack)
	}
	if got := reg.Counter(obs.L("server_request_errors_total", "kind", wire.KindHello)).Value(); got != 1 {
		t.Errorf("refused hellos counted = %d, want 1", got)
	}
	// The same connection can still negotiate properly.
	sendFrame(t, raw, wire.KindHello, 8, wire.Hello{MaxVersion: wire.ProtocolVersion + 4})
	if env, _, err = wire.ReadFrame(raw); err != nil || env.Kind != wire.KindHelloResp {
		t.Errorf("newer peer: env=%v err=%v, want a hello response", env, err)
	}
}
