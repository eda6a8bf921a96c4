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
// await it, so the engine never ties a training run's lifetime to a socket.
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

	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/wire"
)

// Authorizer decides whether a request carrying the given bearer token may
// act on a repository (see internal/auth for the token scheme) and names the
// user it verified; tenant admission keys the in-flight quota on that name.
// A nil authorizer admits everything, and every request then shares one
// in-flight pool (the single-trust-domain deployments of mie-server and the
// examples).
type Authorizer func(repoID, token string) (user string, err error)

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
	authzDenials *obs.Counter
	// kinds holds the per-kind handles of every kind in handlers and of
	// trace-get, resolved once; see kindMetrics for the rest.
	kinds map[string]*kindMetrics
}

// kindMetrics is one request kind's share of the instruments: what handle
// touches on every request of that kind, and the name of its root span.
type kindMetrics struct {
	requests *obs.Counter
	inflight *obs.Gauge
	seconds  *obs.Histogram
	span     string
}

func (s *Server) newKindMetrics(kind string) *kindMetrics {
	return &kindMetrics{
		requests: s.reg.Counter(obs.L("server_requests_total", "kind", kind)),
		inflight: s.reg.Gauge(obs.L("server_inflight_requests", "kind", kind)),
		seconds:  s.reg.Histogram(obs.L("server_request_seconds", "kind", kind)),
		span:     "rpc/" + kind,
	}
}

// kindMetrics returns a kind's handles. The kinds a server runs were
// resolved at start-up; anything else (a replication stream, a kind this
// server does not serve) is rare enough to look up as it comes.
func (s *Server) kindMetrics(kind string) *kindMetrics {
	if km := s.met.kinds[kind]; km != nil {
		return km
	}
	return s.newKindMetrics(kind)
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

	// ctx ends at Close, and with it every connection.
	ctx       context.Context
	stop      context.CancelFunc
	closeOnce sync.Once
	wg        sync.WaitGroup
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
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
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
		authzDenials: s.reg.Counter("server_authz_denials_total"),
		kinds:        map[string]*kindMetrics{wire.KindTraceGet: s.newKindMetrics(wire.KindTraceGet)},
	}
	for kind := range handlers {
		s.met.kinds[kind] = s.newKindMetrics(kind)
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, closes open connections and waits for handler
// goroutines to exit. In-flight request contexts are canceled, so handlers
// blocked in TrainWait return promptly; training jobs themselves keep
// running to completion (they belong to the repository, not the socket).
func (s *Server) Close() (err error) {
	s.closeOnce.Do(func() {
		s.stop()
		err = s.listener.Close()
	})
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool { return s.ctx.Err() != nil }

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
			case <-s.ctx.Done():
				return
			}
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connState is the per-connection multiplexing state: the framed
// connection (written by concurrent handlers), the connection-scoped base
// context, and the table of in-flight request cancel functions a Cancel
// frame indexes into.
type connState struct {
	fc     *wire.FrameConn
	remote string
	ctx    context.Context
	cancel context.CancelFunc

	inflight wire.Inflight
	handlers sync.WaitGroup
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.met.connsOpened.Inc()
	s.met.connsActive.Add(1)
	cs := &connState{
		fc:     wire.NewFrameConn(conn),
		remote: conn.RemoteAddr().String(),
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
		_ = conn.Close() // double-close on shutdown path is harmless
	}()
	// Close tears the socket down, ending the read loop (a connection
	// accepted as Close began is torn down at once).
	defer context.AfterFunc(s.ctx, func() { _ = conn.Close() })()
	for {
		env, n, err := cs.fc.ReadFrame()
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
			var status NodeStatus
			if s.nodeStatus != nil {
				status = s.nodeStatus()
			}
			reply, refused := wire.AnswerHello(env, status)
			s.countOpError(env.Kind, refused)
			if werr := s.sendEnv(cs, env.ID, reply); werr != nil {
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
			if cs.inflight.Cancel(req.ID) {
				s.met.cancelHits.Inc()
				clog.Debug("request canceled", "id", req.ID)
			}
		default:
			// Each request runs on its own goroutine; the framed
			// connection serializes response frames.
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
	km := s.kindMetrics(kind)
	km.requests.Inc()
	s.met.inflight.Add(1)
	km.inflight.Add(1)
	defer func() {
		s.met.inflight.Add(-1)
		km.inflight.Add(-1)
	}()

	ctx := cs.ctx
	var cancel context.CancelFunc
	if env.TimeoutNanos > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(env.TimeoutNanos))
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	cs.inflight.Track(env.ID, cancel)
	defer cs.inflight.Untrack(env.ID)

	// Join the caller's trace (or start a server-local one if the head
	// sampler or slow-capture is armed). Finish runs after the rpc span has
	// ended — defers run LIFO — so the root span is complete when the keep
	// decision is made.
	ctx, at := s.tracer.Join(ctx, env.TraceID, env.SpanID, env.TraceSampled)
	defer at.Finish()

	ctx, sp := obs.StartSpan(ctx, s.reg, km.span)
	defer func() { km.seconds.Observe(sp.End().Seconds()) }()
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
	if s.forward != nil && wire.LeaderOnly(kind) {
		return s.forwardRequest(ctx, cs, env)
	}
	h, served := handlers[kind]
	switch {
	case kind == wire.KindTraceGet:
		return s.handleTraceGet(sp, cs, env)
	case !served:
		s.countOpError(kind, errors.New("unknown kind"))
		return s.send(sp, cs, env.ID, wire.KindError, wire.Ack{Status: wire.Status{Err: "unknown kind: " + kind}})
	}

	resp := h.newResp()
	req := h.newReq()
	repoID := env.RepoID()
	err := s.decode(sp, env, req)
	user := anonymous
	if err == nil && s.authorize != nil {
		user, err = s.authorized(sp, repoID, env.Auth)
	}
	// Per-tenant admission: a request counts against the in-flight quota of
	// the user its authorizer verified — never of a name the token merely
	// carries — before any engine work runs, so one hot tenant saturating
	// the server cannot starve the others. The rejection is a normal typed
	// response (ErrCodeOverQuota + retry-after), not a dropped connection —
	// the client backs off and retries.
	//
	// The slot covers engine work only: release() runs before the reply is
	// written, because a sequential caller sends its next request the moment
	// it reads the response, and a slot still held across the write would
	// reject that caller on its own finished request. The deferred call
	// covers panics and is a no-op otherwise (release is idempotent).
	release := func() {}
	if gov := s.svc.Tenants(); err == nil && gov != nil {
		var admitted func()
		if admitted, err = gov.Admit(user); err == nil {
			release = admitted
			defer release()
		}
	}
	if err == nil {
		// An already-expired deadline (or a Cancel frame that won the race)
		// returns promptly without touching the engine — the "no RPC blocked
		// behind training" guarantee, and no training job started for a
		// caller that has already given up.
		err = ctx.Err()
	}
	if err == nil {
		ectx, esp := sp.ChildContext(ctx, "engine")
		err = h.run(ectx, s.svc, repoID, req, resp)
		esp.End()
	}
	release()
	return s.reply(sp, cs, env, resp, err)
}

// response is a reply payload that opens with a wire.Status.
type response interface{ FromError(error) }

// handler is the server's row for one repository-scoped request kind, beside
// wire's: how to make the payloads and what the engine does with them.
// Everything else about serving the kind — admission, the phase spans, the
// expired-on-arrival check, the reply frame — is handle's one pipeline.
type handler struct {
	newReq  func() any
	newResp func() response
	// run does the engine work of a decoded, authorized request, leaving
	// its result in resp; the error it returns is stamped on resp for it.
	run func(ctx context.Context, svc *core.Service, repoID string, req any, resp response) error
}

// responsePtr constrains PR to the pointer to a response type R, so a
// handler can make fresh Rs.
type responsePtr[R any] interface {
	*R
	response
}

// on builds a handler from its typed run function.
func on[Q, R any, PR responsePtr[R]](run func(ctx context.Context, svc *core.Service, repoID string, req *Q, resp PR) error) handler {
	return handler{
		newReq:  func() any { return new(Q) },
		newResp: func() response { return PR(new(R)) },
		run: func(ctx context.Context, svc *core.Service, repoID string, req any, resp response) error {
			return run(ctx, svc, repoID, req.(*Q), resp.(PR))
		},
	}
}

// onRepo builds the handler of a kind that acts on an existing repository,
// pinned (and activated, if cold) for the span of the run.
func onRepo[Q, R any, PR responsePtr[R]](run func(ctx context.Context, repo *core.Repository, req *Q, resp PR) error) handler {
	return on(func(ctx context.Context, svc *core.Service, repoID string, req *Q, resp PR) error {
		repo, done, err := svc.Acquire(repoID)
		if err != nil {
			return err
		}
		defer done()
		return run(ctx, repo, req, resp)
	})
}

// handlers holds the eight repository-scoped kinds — the paper's five
// operations, Train as its three job kinds (start, status, wait), and the
// read. Hello, Cancel and the replication kinds never reach it; TraceGet is
// a diagnostics read outside any repository and outside tenant quotas.
var handlers = map[string]handler{
	wire.KindCreateRepo: on(func(_ context.Context, svc *core.Service, _ string, req *wire.CreateRepoReq, _ *wire.Ack) error {
		_, err := svc.CreateRepository(req.RepoID, req.Opts)
		return err
	}),
	wire.KindTrainStart: onRepo(func(_ context.Context, repo *core.Repository, _ *wire.TrainReq, resp *wire.TrainJobResp) (err error) {
		resp.Job, err = repo.TrainJob(repo.TrainStart())
		return err
	}),
	wire.KindTrainStatus: onRepo(func(_ context.Context, repo *core.Repository, req *wire.TrainJobReq, resp *wire.TrainJobResp) (err error) {
		resp.Job, err = repo.TrainJob(req.JobID)
		return err
	}),
	wire.KindTrainWait: onRepo(func(ctx context.Context, repo *core.Repository, req *wire.TrainJobReq, resp *wire.TrainJobResp) (err error) {
		resp.Job, err = repo.TrainWait(ctx, req.JobID)
		if err != nil && !errors.Is(err, core.ErrUnknownJob) && resp.Job.JobID != 0 {
			// Deadline expired while the job still runs: not a request
			// failure — report the running status and let the client decide
			// whether to keep waiting.
			err = nil
		}
		return err
	}),
	wire.KindUpdate: onRepo(func(ctx context.Context, repo *core.Repository, req *wire.UpdateReq, _ *wire.Ack) error {
		return repo.UpdateContext(ctx, &req.Update)
	}),
	wire.KindRemove: onRepo(func(ctx context.Context, repo *core.Repository, req *wire.RemoveReq, _ *wire.Ack) error {
		return repo.RemoveContext(ctx, req.ObjectID)
	}),
	wire.KindSearch: onRepo(func(ctx context.Context, repo *core.Repository, req *wire.SearchReq, resp *wire.SearchResp) (err error) {
		resp.Hits, err = repo.SearchContext(ctx, &req.Query)
		if err == nil && ctx.Err() != nil {
			// Canceled while the engine ran: the caller is gone; suppress the
			// result so the (dropped) reply carries no hits.
			resp.Hits, err = nil, ctx.Err()
		}
		return err
	}),
	wire.KindGet: onRepo(func(ctx context.Context, repo *core.Repository, req *wire.GetReq, resp *wire.GetResp) (err error) {
		resp.Ciphertext, resp.Owner, err = repo.GetContext(ctx, req.ObjectID)
		return err
	}),
}

// handleTraceGet hands the client the server-side half of its own trace.
// Trace ids are 64-bit capabilities drawn from crypto-seeded randomness; the
// ring only holds kept traces, so this reveals nothing a client could not
// already observe about its own requests.
func (s *Server) handleTraceGet(sp *obs.Span, cs *connState, env *wire.Envelope) error {
	var req wire.TraceGetReq
	var resp wire.TraceResp
	if err := s.decode(sp, env, &req); err != nil {
		resp.Err = err.Error()
	} else if tr, ok := s.tracer.Get(req.TraceID); ok {
		resp.Trace = *tr
	} else {
		resp.Err = "trace not found (not kept or evicted)"
	}
	return s.send(sp, cs, env.ID, wire.KindTraceResp, resp)
}

// decode unpacks the request payload under a decode phase span.
func (s *Server) decode(sp *obs.Span, env *wire.Envelope, v interface{}) error {
	dsp := sp.Child("decode")
	err := env.Decode(v)
	dsp.End()
	return err
}

// anonymous is the one admission pool of every request no authorizer
// verified a user for.
const anonymous = "anonymous"

// authorized consults the authorizer under an authorize phase span and
// returns the user it verified.
func (s *Server) authorized(sp *obs.Span, repoID, token string) (string, error) {
	asp := sp.Child("authorize")
	user, err := s.authorize(repoID, token)
	asp.End()
	if err != nil {
		s.met.authzDenials.Inc()
		s.logger.Debug("authorization denied", "repo", repoID, "err", err)
		return "", err
	}
	if user == "" {
		user = anonymous
	}
	return user, nil
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

// reply answers a request with the response kind of its wire row: resp,
// stamped with the request's outcome.
func (s *Server) reply(sp *obs.Span, cs *connState, env *wire.Envelope, resp response, err error) error {
	s.countOpError(env.Kind, err)
	sp.SetError(err)
	resp.FromError(err)
	return s.send(sp, cs, env.ID, wire.ReplyKind(env.Kind), resp)
}

// send writes payload to the peer as one frame of the given kind, under a
// reply phase span of sp when the request has phase spans at all (a nil
// span is a no-op).
func (s *Server) send(sp *obs.Span, cs *connState, id uint64, kind string, payload interface{}) error {
	rsp := sp.Child("reply")
	defer rsp.End()
	env, err := wire.NewEnvelope(kind, "", id, 0, payload)
	if err != nil {
		return err
	}
	return s.sendEnv(cs, id, env)
}

// sendEnv writes an envelope — built by send, or produced elsewhere (the
// leader, via a Forwarder; the hello answer) — as one frame on the
// connection, which serializes the frames of concurrent handlers: copied by
// value, re-stamped with the origin request's id, its body bytes untouched.
// The hop-internal Auth never leaks back to the client.
func (s *Server) sendEnv(cs *connState, id uint64, env *wire.Envelope) error {
	out := *env
	out.ID = id
	out.Auth = ""
	n, err := cs.fc.WriteFrame(context.Background(), &out)
	s.met.txBytes.Add(int64(n))
	return err
}
