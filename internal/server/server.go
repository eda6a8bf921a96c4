// Package server exposes the MIE cloud component (core.Service) over TCP
// using the wire protocol: the "MIE Server Component (as a Service)" box of
// Figure 1. Each accepted connection is served by its own goroutine, and
// each request on a connection is dispatched on its own goroutine with a
// context.Context derived from the request's wire deadline, so 16 pipelined
// searches from one phone proceed concurrently and a Cancel frame can
// abandon any of them mid-flight.
//
// Training is asynchronous: TrainStart launches a server-side job backed by
// core's job table and returns immediately; TrainStatus/TrainWait poll or
// await it. The blocking Train kind is implemented on top of the same jobs,
// so the engine never ties a training run's lifetime to a socket.
//
// The server is fully instrumented: per-kind request/error counters,
// in-flight gauges (total and per kind), wire-level byte counters, per-kind
// latency histograms, cancel-frame counters and rpc/<kind>/<phase> spans
// (decode -> authorize -> engine -> reply) all land in an obs.Registry, so
// the cloud half of the paper's latency breakdowns is observable on live
// traffic via the -debug-addr endpoint.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"mie/internal/auth"
	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/wire"
)

// Authorizer decides whether a request carrying the given bearer token may
// act on a repository (see internal/auth for the token scheme). A nil
// authorizer admits everything (the single-trust-domain deployments of the
// examples).
type Authorizer func(repoID, token string) error

// Option customizes a Server.
type Option func(*Server)

// WithAuthorizer installs request authorization.
func WithAuthorizer(a Authorizer) Option {
	return func(s *Server) { s.authorize = a }
}

// WithObservability records the server's metrics into reg instead of the
// process-wide obs.Default() registry.
func WithObservability(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithTracer installs the distributed tracer requests join (propagated
// TraceID/SpanID from request envelopes) and completed traces land in. Defaults
// to obs.DefaultTracer().
func WithTracer(t *obs.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// Accept-retry backoff bounds: transient Accept errors (e.g. EMFILE when the
// process runs out of file descriptors under load) must not kill the accept
// loop; they are retried with capped exponential backoff.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// serverMetrics caches the hot metric handles so the per-request path does
// only atomic increments, no registry lookups.
type serverMetrics struct {
	acceptErrors *obs.Counter
	connsOpened  *obs.Counter
	connsActive  *obs.Gauge
	inflight     *obs.Gauge
	rxBytes      *obs.Counter
	txBytes      *obs.Counter
	malformed    *obs.Counter
	readErrors   *obs.Counter
	cancelFrames *obs.Counter
	cancelHits   *obs.Counter
}

// Server hosts a core.Service on a TCP listener.
type Server struct {
	svc       *core.Service
	listener  net.Listener
	logger    *slog.Logger
	authorize Authorizer
	reg       *obs.Registry
	tracer    *obs.Tracer
	met       serverMetrics

	// Replication seams (see repl.go): repl makes this node a leader,
	// forward makes it a follower for mutations, nodeStatus annotates the
	// handshake with the node's role and lag.
	repl       ReplicationSource
	forward    Forwarder
	nodeStatus func() NodeStatus

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// New starts a server listening on addr (e.g. "127.0.0.1:0"). A nil logger
// discards logs.
func New(addr string, svc *core.Service, logger *slog.Logger, opts ...Option) (*Server, error) {
	if svc == nil {
		return nil, errors.New("server: nil service")
	}
	s := &Server{
		svc:    svc,
		logger: obs.OrDiscard(logger),
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg == nil {
		s.reg = obs.Default()
	}
	if s.tracer == nil {
		s.tracer = obs.DefaultTracer()
	}
	s.initMetrics()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.listener = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *Server) initMetrics() {
	s.met = serverMetrics{
		acceptErrors: s.reg.Counter("server_accept_errors_total"),
		connsOpened:  s.reg.Counter("server_connections_total"),
		connsActive:  s.reg.Gauge("server_connections_active"),
		inflight:     s.reg.Gauge("server_inflight_requests"),
		rxBytes:      s.reg.Counter("server_rx_bytes_total"),
		txBytes:      s.reg.Counter("server_tx_bytes_total"),
		malformed:    s.reg.Counter("server_malformed_frames_total"),
		readErrors:   s.reg.Counter("server_read_errors_total"),
		cancelFrames: s.reg.Counter("server_cancel_frames_total"),
		cancelHits:   s.reg.Counter("server_cancel_hits_total"),
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, closes open connections and waits for handler
// goroutines to exit. In-flight request contexts are canceled, so handlers
// blocked in TrainWait return promptly; training jobs themselves keep
// running to completion (they belong to the repository, not the socket).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	err := s.listener.Close()
	for c := range s.conns {
		_ = c.Close() // best-effort shutdown; handler goroutines report their own errors
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// acceptLoop accepts connections until the listener is closed. Transient
// Accept errors (EMFILE and friends) are retried with capped exponential
// backoff rather than killing the server, and counted as accept_errors.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.met.acceptErrors.Inc()
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			s.logger.Warn("accept failed; retrying", "err", err, "backoff", backoff)
			select {
			case <-time.After(backoff):
			case <-s.done:
				return
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // racing shutdown: drop the connection
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connState is the per-connection multiplexing state: a write lock
// serializing response frames from concurrent handlers, the connection-
// scoped base context, and the table of in-flight request cancel functions
// a Cancel frame indexes into.
type connState struct {
	conn   net.Conn
	remote string
	ctx    context.Context
	cancel context.CancelFunc

	wmu sync.Mutex // serializes frame writes from handler goroutines

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc
	handlers sync.WaitGroup
}

// write sends one response frame, echoing the request id, under the
// connection's write lock. Returns bytes written.
func (cs *connState) write(id uint64, kind string, payload interface{}) (int, error) {
	env, err := wire.NewEnvelope(kind, "", id, 0, payload)
	if err != nil {
		return 0, err
	}
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	return wire.WriteEnvelope(cs.conn, env)
}

// writeEnv relays a response envelope produced elsewhere (the leader, via a
// Forwarder; the hello answer) under the connection's write lock: copied by
// value, re-stamped with the origin request's id, its body bytes untouched.
// The hop-internal Auth never leaks back to the client.
func (cs *connState) writeEnv(id uint64, env *wire.Envelope) (int, error) {
	out := *env
	out.ID = id
	out.Auth = ""
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	return wire.WriteEnvelope(cs.conn, &out)
}

// register installs a cancel function for an in-flight request id.
func (cs *connState) register(id uint64, cancel context.CancelFunc) {
	cs.mu.Lock()
	cs.inflight[id] = cancel
	cs.mu.Unlock()
}

// unregister removes an in-flight entry.
func (cs *connState) unregister(id uint64) {
	cs.mu.Lock()
	delete(cs.inflight, id)
	cs.mu.Unlock()
}

// cancelRequest fires the cancel function of an in-flight request, if the
// id names one. Reports whether it hit.
func (cs *connState) cancelRequest(id uint64) bool {
	cs.mu.Lock()
	cancel, ok := cs.inflight[id]
	cs.mu.Unlock()
	if ok {
		cancel()
	}
	return ok
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.met.connsOpened.Inc()
	s.met.connsActive.Add(1)
	cs := &connState{
		conn:     conn,
		remote:   conn.RemoteAddr().String(),
		inflight: make(map[uint64]context.CancelFunc),
	}
	cs.ctx, cs.cancel = context.WithCancel(context.Background())
	// Connection-scoped logger: every line of this connection carries the
	// remote address, so malformed-frame and cancel events are attributable
	// to a peer.
	clog := s.logger.With("remote", cs.remote)
	clog.Debug("connection accepted")
	defer func() {
		// Unblock handlers first (TrainWait etc.), then wait for them so no
		// goroutine writes to a map or conn we are tearing down.
		cs.cancel()
		cs.handlers.Wait()
		s.met.connsActive.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close() // double-close on shutdown path is harmless
	}()
	for {
		env, n, err := wire.ReadFrame(conn)
		if err != nil {
			// Classify the abort: a clean disconnect is business as usual, a
			// malformed frame means a corrupt or hostile peer, anything else
			// is a transport failure. Each gets its own counter and level.
			switch {
			case errors.Is(err, io.EOF):
				clog.Debug("client disconnected")
			case wire.IsMalformed(err):
				s.met.malformed.Inc()
				clog.Warn("malformed frame; dropping connection", "err", err)
			case s.isClosed() || errors.Is(err, net.ErrClosed):
				clog.Debug("connection closed during shutdown")
			default:
				s.met.readErrors.Inc()
				clog.Info("read failed", "err", err)
			}
			return
		}
		s.met.rxBytes.Add(int64(n))
		switch env.Kind {
		case wire.KindHello:
			// Version negotiation: a peer that cannot speak this protocol
			// gets a typed refusal, counted like any failed request.
			s.reg.Counter(obs.L("server_requests_total", "kind", env.Kind)).Inc()
			reply, refused := wire.AnswerHello(env, s.helloResp())
			s.countOpError(env.Kind, refused)
			wn, werr := cs.writeEnv(env.ID, reply)
			s.met.txBytes.Add(int64(wn))
			if werr != nil {
				clog.Info("hello reply failed", "err", werr)
				return
			}
		case wire.KindReplAck:
			// Fire-and-forget like Cancel: feed the leader's cursor
			// accounting, send nothing.
			var ack wire.ReplAck
			if err := env.Decode(&ack); err != nil {
				clog.Debug("bad repl-ack frame", "err", err)
				continue
			}
			if s.repl != nil {
				s.repl.Ack(ack)
			}
		case wire.KindCancel:
			// Fire-and-forget: cancel the in-flight request, send nothing.
			s.met.cancelFrames.Inc()
			var req wire.CancelReq
			if err := env.Decode(&req); err != nil {
				clog.Debug("bad cancel frame", "err", err)
				continue
			}
			if cs.cancelRequest(req.ID) {
				s.met.cancelHits.Inc()
				clog.Debug("request canceled", "id", req.ID)
			}
		default:
			// Each request runs on its own goroutine; the write lock inside
			// connState serializes response frames.
			cs.handlers.Add(1)
			go func() {
				defer cs.handlers.Done()
				if err := s.handle(cs, clog, env); err != nil {
					clog.Info("reply failed", "id", env.ID, "err", err)
				}
			}()
		}
	}
}

// handle dispatches one request and writes exactly one response frame. Every
// request is counted, timed per kind, and decomposed into
// decode -> authorize -> engine -> reply phase spans. The request context is
// derived from the connection (canceled at teardown), bounded by the wire
// deadline, and registered under the request id so Cancel frames reach it.
// When the envelope carries trace context (or this side's sampler fires),
// the request's spans are collected into one trace finished — and possibly
// kept — when the reply is written.
func (s *Server) handle(cs *connState, lg *slog.Logger, env *wire.Envelope) error {
	kind := env.Kind
	s.reg.Counter(obs.L("server_requests_total", "kind", kind)).Inc()
	s.met.inflight.Add(1)
	kindInflight := s.reg.Gauge(obs.L("server_inflight_requests", "kind", kind))
	kindInflight.Add(1)
	defer func() {
		s.met.inflight.Add(-1)
		kindInflight.Add(-1)
	}()

	ctx := cs.ctx
	var cancel context.CancelFunc
	if d, ok := env.Timeout(); ok {
		ctx, cancel = context.WithTimeout(ctx, d)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	cs.register(env.ID, cancel)
	defer cs.unregister(env.ID)

	// Join the caller's trace (or start a server-local one if the head
	// sampler or slow-capture is armed). Finish runs after the rpc span has
	// ended — defers run LIFO — so the root span is complete when the keep
	// decision is made.
	ctx, at := s.tracer.Join(ctx, env.TraceID, env.SpanID, env.TraceSampled)
	defer at.Finish()

	ctx, sp := obs.StartSpan(ctx, s.reg, "rpc/"+kind)
	defer func() {
		s.reg.Histogram(obs.L("server_request_seconds", "kind", kind)).Observe(sp.End().Seconds())
	}()
	if lg.Enabled(ctx, slog.LevelDebug) {
		lg.Debug("request", "id", env.ID, "kind", kind)
	}

	// Replication streams hold their handler goroutine for the life of the
	// subscription; everything about them is handled apart.
	if kind == wire.KindReplSubscribe {
		return s.handleReplSubscribe(ctx, cs, env)
	}
	// A follower answers mutations and training by relaying them to the
	// leader — before local admission, which the leader applies itself
	// against the forwarded bearer token.
	if s.forward != nil && forwarded(kind) {
		return s.forwardRequest(ctx, cs, env)
	}

	// Per-tenant admission: repository-scoped requests count against the
	// caller's in-flight quota before any engine work runs, so one hot
	// tenant saturating the server cannot starve the others. The rejection
	// is a normal typed response (ErrCodeOverQuota + retry-after), not a
	// dropped connection — the client backs off and retries.
	//
	// The slot covers engine work only: every case below calls release()
	// before it writes its reply, because a sequential caller sends its next
	// request the moment it reads the response, and a slot still held across
	// the write would reject that caller on its own finished request. The
	// deferred call covers panics and is a no-op otherwise (release is
	// idempotent).
	release := func() {}
	if gov := s.svc.Tenants(); gov != nil && repoScoped(kind) {
		var aerr error
		if release, aerr = gov.Admit(principal(env.Auth)); aerr != nil {
			return s.writeKindError(sp, kind, cs, env.ID, aerr)
		}
		defer release()
	}

	switch kind {
	case wire.KindCreateRepo:
		var req wire.CreateRepoReq
		err := s.decode(sp, env, &req)
		if err == nil {
			err = s.authorized(sp, req.RepoID, env.Auth)
		}
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			sp.Time("engine", func() {
				_, err = s.svc.CreateRepository(req.RepoID, req.Opts.ToCore())
			})
		}
		release()
		return s.writeAck(sp, kind, cs, env.ID, err)

	case wire.KindTrain:
		// Blocking semantics on top of the async job table: start (or
		// join) a job, then wait for it under the request context.
		var req wire.TrainReq
		err := s.decode(sp, env, &req)
		if err == nil {
			err = s.authorized(sp, req.RepoID, env.Auth)
		}
		if err == nil {
			ectx, esp := sp.ChildContext(ctx, "engine")
			var repo *core.Repository
			var done func()
			if repo, done, err = s.svc.Acquire(req.RepoID); err == nil {
				var st core.TrainJobStatus
				if st, err = repo.TrainWait(ectx, repo.TrainStart()); err == nil && st.State == core.TrainFailed {
					err = errors.New(st.Err)
				}
				done()
			}
			esp.End()
		}
		release()
		return s.writeAck(sp, kind, cs, env.ID, err)

	case wire.KindTrainStart:
		var req wire.TrainReq
		err := s.decode(sp, env, &req)
		if err == nil {
			err = s.authorized(sp, req.RepoID, env.Auth)
		}
		var st core.TrainJobStatus
		if err == nil {
			sp.Time("engine", func() {
				var repo *core.Repository
				var done func()
				if repo, done, err = s.svc.Acquire(req.RepoID); err == nil {
					st, err = repo.TrainJob(repo.TrainStart())
					done()
				}
			})
		}
		release()
		return s.writeTrainJobResp(sp, kind, cs, env.ID, st, err)

	case wire.KindTrainStatus, wire.KindTrainWait:
		var req wire.TrainJobReq
		err := s.decode(sp, env, &req)
		if err == nil {
			err = s.authorized(sp, req.RepoID, env.Auth)
		}
		var st core.TrainJobStatus
		if err == nil {
			ectx, esp := sp.ChildContext(ctx, "engine")
			var repo *core.Repository
			var done func()
			if repo, done, err = s.svc.Acquire(req.RepoID); err == nil {
				if kind == wire.KindTrainStatus {
					st, err = repo.TrainJob(req.JobID)
				} else {
					st, err = repo.TrainWait(ectx, req.JobID)
					if err != nil && !errors.Is(err, core.ErrUnknownJob) && st.JobID != 0 {
						// Deadline expired while the job still runs: not a
						// request failure — report the running status and
						// let the client decide whether to keep waiting.
						err = nil
					}
				}
				done()
			}
			esp.End()
		}
		release()
		return s.writeTrainJobResp(sp, kind, cs, env.ID, st, err)

	case wire.KindUpdate:
		var req wire.UpdateReq
		err := s.decode(sp, env, &req)
		if err == nil {
			err = s.authorized(sp, req.RepoID, env.Auth)
		}
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			ectx, esp := sp.ChildContext(ctx, "engine")
			var repo *core.Repository
			var done func()
			if repo, done, err = s.svc.Acquire(req.RepoID); err == nil {
				err = repo.UpdateContext(ectx, &req.Update)
				done()
			}
			esp.End()
		}
		release()
		return s.writeAck(sp, kind, cs, env.ID, err)

	case wire.KindRemove:
		var req wire.RemoveReq
		err := s.decode(sp, env, &req)
		if err == nil {
			err = s.authorized(sp, req.RepoID, env.Auth)
		}
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			ectx, esp := sp.ChildContext(ctx, "engine")
			var repo *core.Repository
			var done func()
			if repo, done, err = s.svc.Acquire(req.RepoID); err == nil {
				err = repo.RemoveContext(ectx, req.ObjectID)
				done()
			}
			esp.End()
		}
		release()
		return s.writeAck(sp, kind, cs, env.ID, err)

	case wire.KindSearch:
		var req wire.SearchReq
		var hits []core.SearchHit
		err := s.decode(sp, env, &req)
		if err == nil {
			err = s.authorized(sp, req.RepoID, env.Auth)
		}
		if err == nil {
			// An already-expired deadline (or a Cancel frame that won the
			// race) returns promptly without touching the engine — the
			// "no RPC blocked behind training" guarantee.
			err = ctx.Err()
		}
		if err == nil {
			ectx, esp := sp.ChildContext(ctx, "engine")
			var repo *core.Repository
			var done func()
			if repo, done, err = s.svc.Acquire(req.RepoID); err == nil {
				hits, err = repo.SearchContext(ectx, &req.Query)
				done()
			}
			esp.End()
			if err == nil && ctx.Err() != nil {
				// Canceled while the engine ran: the caller is gone; suppress
				// the result so the (dropped) reply carries no hits.
				hits, err = nil, ctx.Err()
			}
		}
		release()
		return s.writeSearchResp(sp, kind, cs, env.ID, hits, err)

	case wire.KindGet:
		var req wire.GetReq
		var ct []byte
		var owner string
		err := s.decode(sp, env, &req)
		if err == nil {
			err = s.authorized(sp, req.RepoID, env.Auth)
		}
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			ectx, esp := sp.ChildContext(ctx, "engine")
			var repo *core.Repository
			var done func()
			if repo, done, err = s.svc.Acquire(req.RepoID); err == nil {
				ct, owner, err = repo.GetContext(ectx, req.ObjectID)
				done()
			}
			esp.End()
		}
		release()
		return s.writeGetResp(sp, kind, cs, env.ID, ct, owner, err)

	case wire.KindTraceGet:
		// Hand the client the server-side half of its own trace. Trace ids
		// are 64-bit capabilities drawn from crypto-seeded randomness; the
		// ring only holds kept traces, so this reveals nothing a client
		// could not already observe about its own requests.
		var req wire.TraceGetReq
		err := s.decode(sp, env, &req)
		resp := wire.TraceResp{}
		if err == nil {
			if tr, ok := s.tracer.Get(req.TraceID); ok {
				resp.TraceID = tr.TraceID
				resp.Root = tr.Root
				resp.StartUnixNano = tr.StartUnixNano
				resp.DurationNanos = tr.DurationNanos
				resp.Reason = tr.Reason
				for _, rec := range tr.Spans {
					resp.Spans = append(resp.Spans, wire.TraceSpan{
						SpanID:        rec.SpanID,
						ParentID:      rec.ParentID,
						Name:          rec.Name,
						StartUnixNano: rec.StartUnixNano,
						DurationNanos: rec.DurationNanos,
						Err:           rec.Err,
					})
				}
			} else {
				resp.Err = "trace not found (not kept or evicted)"
			}
		} else {
			resp.Err = err.Error()
		}
		rsp := sp.Child("reply")
		n, werr := cs.write(env.ID, wire.KindTraceResp, resp)
		s.met.txBytes.Add(int64(n))
		rsp.End()
		return werr

	default:
		s.countOpError(kind, errors.New("unknown kind"))
		rsp := sp.Child("reply")
		n, err := cs.write(env.ID, wire.KindError, wire.Ack{Err: "unknown kind: " + kind})
		s.met.txBytes.Add(int64(n))
		rsp.End()
		return err
	}
}

// decode unpacks the request payload under a decode phase span.
func (s *Server) decode(sp *obs.Span, env *wire.Envelope, v interface{}) error {
	dsp := sp.Child("decode")
	err := env.Decode(v)
	dsp.End()
	return err
}

// authorized consults the authorizer, if any, under an authorize phase span.
func (s *Server) authorized(sp *obs.Span, repoID, token string) error {
	if s.authorize == nil {
		return nil
	}
	asp := sp.Child("authorize")
	err := s.authorize(repoID, token)
	asp.End()
	if err != nil {
		s.reg.Counter("server_authz_denials_total").Inc()
		s.logger.Debug("authorization denied", "repo", repoID, "err", err)
	}
	return err
}

// repoScoped reports whether a request kind acts on a repository and thus
// counts against the caller's tenant quotas. Hello/Cancel never reach
// handle; TraceGet is a diagnostics read outside any repository.
func repoScoped(kind string) bool {
	switch kind {
	case wire.KindCreateRepo, wire.KindTrain, wire.KindTrainStart,
		wire.KindTrainStatus, wire.KindTrainWait, wire.KindUpdate,
		wire.KindRemove, wire.KindSearch, wire.KindGet:
		return true
	}
	return false
}

// principal extracts the tenant identity from a bearer token for quota
// accounting. The MAC is deliberately not checked here: admission happens
// before per-repo authorization (which does verify), and an attacker who
// forges a User only burns that user's quota, never bypasses authorization.
// Tokenless requests pool under "anonymous".
func principal(token string) string {
	if token == "" {
		return "anonymous"
	}
	t, err := auth.Parse(token)
	if err != nil || t.User == "" {
		return "anonymous"
	}
	return t.User
}

// writeKindError writes the kind-appropriate error response (admission
// rejections happen before the request switch, so the reply type must be
// chosen from the kind alone).
func (s *Server) writeKindError(sp *obs.Span, kind string, cs *connState, id uint64, err error) error {
	switch kind {
	case wire.KindSearch:
		return s.writeSearchResp(sp, kind, cs, id, nil, err)
	case wire.KindGet:
		return s.writeGetResp(sp, kind, cs, id, nil, "", err)
	case wire.KindTrainStart, wire.KindTrainStatus, wire.KindTrainWait:
		return s.writeTrainJobResp(sp, kind, cs, id, core.TrainJobStatus{}, err)
	default:
		return s.writeAck(sp, kind, cs, id, err)
	}
}

// countOpError accounts a failed request (the response still carries the
// error to the client; this is the server-side tally).
func (s *Server) countOpError(kind string, err error) {
	if err == nil {
		return
	}
	s.reg.Counter(obs.L("server_request_errors_total", "kind", kind)).Inc()
	s.logger.Debug("request failed", "kind", kind, "err", err)
}

func (s *Server) writeAck(sp *obs.Span, kind string, cs *connState, id uint64, err error) error {
	s.countOpError(kind, err)
	sp.SetError(err)
	rsp := sp.Child("reply")
	defer rsp.End()
	ack := wire.Ack{}
	if err != nil {
		ack.Err = err.Error()
		code, ra := wire.ErrCode(err)
		ack.Code, ack.RetryAfterNanos = code, ra.Nanoseconds()
	}
	n, werr := cs.write(id, wire.KindAck, ack)
	s.met.txBytes.Add(int64(n))
	return werr
}

func (s *Server) writeSearchResp(sp *obs.Span, kind string, cs *connState, id uint64, hits []core.SearchHit, err error) error {
	s.countOpError(kind, err)
	sp.SetError(err)
	rsp := sp.Child("reply")
	defer rsp.End()
	resp := wire.SearchResp{Hits: hits}
	if err != nil {
		resp.Err = err.Error()
		code, ra := wire.ErrCode(err)
		resp.Code, resp.RetryAfterNanos = code, ra.Nanoseconds()
	}
	n, werr := cs.write(id, wire.KindSearchResp, resp)
	s.met.txBytes.Add(int64(n))
	return werr
}

func (s *Server) writeGetResp(sp *obs.Span, kind string, cs *connState, id uint64, ct []byte, owner string, err error) error {
	s.countOpError(kind, err)
	sp.SetError(err)
	rsp := sp.Child("reply")
	defer rsp.End()
	resp := wire.GetResp{Ciphertext: ct, Owner: owner}
	if err != nil {
		resp.Err = err.Error()
		code, ra := wire.ErrCode(err)
		resp.Code, resp.RetryAfterNanos = code, ra.Nanoseconds()
	}
	n, werr := cs.write(id, wire.KindGetResp, resp)
	s.met.txBytes.Add(int64(n))
	return werr
}

func (s *Server) writeTrainJobResp(sp *obs.Span, kind string, cs *connState, id uint64, st core.TrainJobStatus, err error) error {
	s.countOpError(kind, err)
	sp.SetError(err)
	rsp := sp.Child("reply")
	defer rsp.End()
	resp := wire.TrainJobResp{Job: wire.TrainJobStatus{
		JobID: st.JobID,
		State: string(st.State),
		Err:   st.Err,
		Epoch: st.Epoch,
	}}
	if err != nil {
		resp.Err = err.Error()
		code, ra := wire.ErrCode(err)
		resp.Code, resp.RetryAfterNanos = code, ra.Nanoseconds()
	}
	n, werr := cs.write(id, wire.KindTrainJobResp, resp)
	s.met.txBytes.Add(int64(n))
	return werr
}
