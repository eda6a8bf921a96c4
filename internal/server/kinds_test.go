package server

// Tests that take the kind rows as their input: whatever holds for one
// repository-scoped kind — which frame answers it, that a request nobody
// waits for never reaches the engine, the phase spans it leaves — holds for
// every kind in handlers, read off wire's table.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"mie/internal/auth"
	"mie/internal/core"
	"mie/internal/leakcheck"
	"mie/internal/obs"
	"mie/internal/wire"
)

// requestOf builds a kind's request payload — the zero value its handler
// decodes into — naming repoID.
func requestOf(t testing.TB, kind, repoID string) any {
	t.Helper()
	req := handlers[kind].newReq()
	f := reflect.ValueOf(req).Elem().FieldByName("RepoID")
	if !f.IsValid() {
		t.Fatalf("%s: request %T has no RepoID", kind, req)
	}
	f.SetString(repoID)
	return req
}

// rawCall sends env on a raw connection and returns the one reply frame,
// checked to be of the kind wire's table promises and decoded into the
// handler's response type.
func rawCall(t testing.TB, conn net.Conn, env *wire.Envelope) *wire.Status {
	t.Helper()
	if _, err := wire.WriteEnvelope(conn, env); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("%s: %v", env.Kind, err)
	}
	if reply.Kind != wire.ReplyKind(env.Kind) || reply.ID != env.ID {
		t.Fatalf("%s (id %d) answered by %s (id %d), want %s", env.Kind, env.ID, reply.Kind, reply.ID, wire.ReplyKind(env.Kind))
	}
	resp := handlers[env.Kind].newResp()
	if err := reply.Decode(resp); err != nil {
		t.Fatalf("%s: %v", env.Kind, err)
	}
	st := resp.(interface{ Failure() *wire.Status }).Failure()
	if st == nil {
		st = &wire.Status{}
	}
	return st
}

// failEveryKind sends one request of every kind in handlers over a raw
// connection to srv, each naming repoFor(kind), and requires each to be
// refused in its own reply kind with wantCode. It returns the refusals.
func failEveryKind(t *testing.T, srv *Server, repoFor func(kind string) string, wantCode int) map[string]*wire.Status {
	t.Helper()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	out := make(map[string]*wire.Status, len(handlers))
	id := uint64(0)
	for kind := range handlers {
		id++
		env, err := wire.NewEnvelope(kind, "", id, 0, requestOf(t, kind, repoFor(kind)))
		if err != nil {
			t.Fatal(err)
		}
		st := rawCall(t, raw, env)
		if st.Err == "" || st.Code != wantCode {
			t.Errorf("%s: status %+v, want an error coded %d", kind, *st, wantCode)
		}
		out[kind] = st
	}
	return out
}

// TestEveryKindFailsInItsReplyKind: whatever stops a request — the
// authorizer, tenant admission (which runs before the body is even decoded),
// the engine — the caller gets the response kind of the request's row, with
// a typed code.
func TestEveryKindFailsInItsReplyKind(t *testing.T) {
	leakcheck.Check(t)
	everywhere := func(repoID string) func(string) string { return func(string) string { return repoID } }
	t.Run("authz denial", func(t *testing.T) {
		srv, err := New("127.0.0.1:0", memSvc(t), nil, WithObservability(obs.NewRegistry()),
			WithAuthorizer(func(repoID, token string) error { return fmt.Errorf("no token: %w", auth.ErrMalformed) }))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		failEveryKind(t, srv, everywhere("locked"), wire.ErrCodeUnauthorized)
	})
	t.Run("admission rejection", func(t *testing.T) {
		svc, _, err := core.OpenService(core.ServiceOptions{Quotas: core.Quotas{MaxInflight: 1}})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New("127.0.0.1:0", svc, nil, WithObservability(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		release, err := svc.Tenants().Admit("anonymous")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		for kind, st := range failEveryKind(t, srv, everywhere("adm"), wire.ErrCodeOverQuota) {
			if st.RetryAfterNanos <= 0 {
				t.Errorf("%s: rejection carries no retry-after hint: %+v", kind, *st)
			}
		}
	})
	t.Run("engine refusal", func(t *testing.T) {
		// The one error every kind can provoke in the engine: the
		// repository is unknown — or, for create-repo, already there.
		srv, err := New("127.0.0.1:0", memSvc(t), nil, WithObservability(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		if err := dial(t, srv, nil).CreateRepository(testCtx, "taken", smallOpts()); err != nil {
			t.Fatal(err)
		}
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		for kind := range handlers {
			repoID, want := "missing", wire.ErrCodeRepoNotFound
			if kind == wire.KindCreateRepo {
				repoID, want = "taken", wire.ErrCodeExists
			}
			env, err := wire.NewEnvelope(kind, "", 7, 0, requestOf(t, kind, repoID))
			if err != nil {
				t.Fatal(err)
			}
			if st := rawCall(t, raw, env); st.Code != want {
				t.Errorf("%s on %s: status %+v, want code %d", kind, repoID, *st, want)
			}
		}
	})
}

// TestExpiredDeadlineNeverReachesEngine: a request whose deadline lapsed
// before the engine's turn is answered, typed, without engine work — for
// every kind, train-start included, which used to start a job nobody was
// waiting for.
func TestExpiredDeadlineNeverReachesEngine(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	svc := memSvc(t)
	// The authorizer is the last step before the expired-on-arrival check;
	// holding every request there until its deadline is long gone makes
	// "expired before the engine" deterministic.
	const budget = time.Millisecond
	srv, err := New("127.0.0.1:0", svc, nil, WithObservability(reg),
		WithAuthorizer(func(repoID, token string) error { time.Sleep(20 * budget); return nil }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	repo, err := svc.CreateRepository("r", smallOpts().ToCore())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for kind := range handlers {
		repoID := "r"
		if kind == wire.KindCreateRepo {
			repoID = "never-created"
		}
		env, err := wire.NewEnvelope(kind, "", 3, budget, requestOf(t, kind, repoID))
		if err != nil {
			t.Fatal(err)
		}
		if st := rawCall(t, raw, env); !strings.Contains(st.Err, context.DeadlineExceeded.Error()) {
			t.Errorf("%s: expired request answered %+v, want a deadline error", kind, *st)
		}
		if n := reg.Histogram(obs.L("phase_seconds", "phase", "rpc/"+kind+"/engine")).Count(); n != 0 {
			t.Errorf("%s: the expired request reached the engine (%d engine spans)", kind, n)
		}
	}
	if st, err := repo.TrainJob(1); !errors.Is(err, core.ErrUnknownJob) {
		t.Errorf("an expired request started a training job: %+v, %v", st, err)
	}
	if _, err := svc.Repository("never-created"); !errors.Is(err, core.ErrRepoNotFound) {
		t.Errorf("an expired create-repo created the repository (err = %v)", err)
	}
}

// TestEveryKindSpanShape: every kind leaves the same phase spans under its
// rpc/<kind> root — decode, authorize, engine, reply, in that order — and
// gives its admission slot back before the reply starts: with the reply
// held unread on an unbuffered pipe, the tenant's only slot is free.
func TestEveryKindSpanShape(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, 64)
	svc, _, err := core.OpenService(core.ServiceOptions{Quotas: core.Quotas{MaxInflight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", svc, nil, WithObservability(reg), WithTracer(tracer),
		WithAuthorizer(func(repoID, token string) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if _, err := svc.CreateRepository("r", smallOpts().ToCore()); err != nil {
		t.Fatal(err)
	}
	traceID := uint64(0x7000)
	for kind := range handlers {
		traceID++
		repoID := "r"
		if kind == wire.KindCreateRepo {
			repoID = "fresh"
		}
		env, err := wire.NewEnvelope(kind, "", 5, 0, requestOf(t, kind, repoID))
		if err != nil {
			t.Fatal(err)
		}
		env.TraceID, env.TraceSampled = traceID, true

		srvEnd, cliEnd := net.Pipe()
		cs := &connState{conn: srvEnd, inflight: make(map[uint64]context.CancelFunc)}
		cs.ctx, cs.cancel = context.WithCancel(context.Background())
		handled := make(chan error, 1)
		go func() { handled <- srv.handle(cs, obs.OrDiscard(nil), env) }()

		// Nothing reads cliEnd, so once its engine span has ended the handler
		// is parked in its reply write at the latest — and the slot must
		// come free regardless.
		deadline := time.Now().Add(5 * time.Second)
		engine := reg.Histogram(obs.L("phase_seconds", "phase", "rpc/"+kind+"/engine"))
		for free := false; !free; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the admission slot is still held while the reply waits to be read", kind)
			}
			if engine.Count() == 0 {
				continue
			}
			if release, err := svc.Tenants().Admit("anonymous"); err == nil {
				release()
				free = true
			}
		}
		if reply, _, err := wire.ReadFrame(cliEnd); err != nil || reply.Kind != wire.ReplyKind(kind) {
			t.Fatalf("%s: reply %+v, %v", kind, reply, err)
		}
		if err := <-handled; err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		cs.cancel()
		_ = cliEnd.Close()
		_ = srvEnd.Close()

		tr, ok := tracer.Get(traceID)
		if !ok {
			t.Fatalf("%s: sampled trace was not kept", kind)
		}
		var root obs.SpanRecord
		for _, s := range tr.Spans {
			if s.Name == "rpc/"+kind {
				root = s
			}
		}
		var phases []string
		for _, s := range tr.Spans {
			if s.ParentID == root.SpanID && root.SpanID != 0 {
				phases = append(phases, strings.TrimPrefix(s.Name, root.Name+"/"))
			}
		}
		if got, want := strings.Join(phases, " "), "decode authorize engine reply"; got != want {
			t.Errorf("%s: phases under %s = %q, want %q", kind, root.Name, got, want)
		}
	}
}
