// Package client provides the network bindings of the MIE client component:
// it speaks the wire protocol to a server hosting core.Service, and couples
// each exchange to a device.Meter so the figures' Network sub-operation can
// be attributed per call.
//
// A Conn runs the hello handshake at dial time and then multiplexes: one
// writer goroutine serializes outgoing frames, one reader goroutine demuxes
// responses by request ID, and any number of callers share the single TCP
// connection with their requests in flight concurrently — sixteen pipelined
// searches cost one connection, not sixteen. Deadlines on the caller's
// context ride along on the wire, and canceling a context mid-call emits a
// best-effort Cancel frame so the server can abandon the work. A server
// that cannot speak wire.ProtocolVersion fails the dial with an error
// matching wire.ErrUnsupportedVersion.
//
// Transport failures poison the connection — a frame boundary lost to a
// half-written request or half-read response makes every subsequent byte
// stream position undefined, so the TCP connection is discarded rather than
// reused. Idempotent operations (wire's kind table says which) transparently
// redial with capped exponential backoff; mutations surface the error to the
// caller, who alone knows whether re-sending is safe.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mie/internal/core"
	"mie/internal/device"
	"mie/internal/obs"
	"mie/internal/wire"
)

// RemoteError is an application-level error reported by the server: the
// request was delivered, processed, and rejected. It is never retried (the
// outcome is deterministic) — in contrast to transport errors, which are.
type RemoteError struct {
	Msg string
	// Code is the wire.ErrCode* classification.
	Code int
	// RetryAfter, when positive, is the server's hint for when a rejected
	// request (today: an over-quota one) may be retried.
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string { return e.Msg }

// Unwrap maps the wire code back to the engine sentinel it encodes, so
// errors.Is(err, core.ErrRepoExists) and friends hold across the network
// exactly as they do embedded. Unclassified errors unwrap to nothing.
func (e *RemoteError) Unwrap() error { return wire.Sentinel(e.Code) }

// remoteError turns the failure a response's status reports (nil: none)
// into the RemoteError it encodes.
func remoteError(st *wire.Status) error {
	if st == nil {
		return nil
	}
	return &RemoteError{Msg: st.Err, Code: st.Code, RetryAfter: time.Duration(st.RetryAfterNanos)}
}

// ErrClosed is returned for calls on a Conn after Close.
var ErrClosed = errors.New("client: connection closed")

// Reconnect policy for idempotent calls that hit a transport error.
const (
	defaultMaxRetries   = 3
	reconnectBackoffMin = 25 * time.Millisecond
	reconnectBackoffMax = 800 * time.Millisecond
)

// writeQueueDepth bounds frames queued to the writer goroutine. Callers
// block (cancelably) when it is full; fire-and-forget Cancel frames are
// dropped instead, since the server finishing a canceled request is merely
// wasted work, not an error.
const writeQueueDepth = 64

// Option customizes a Conn.
type Option func(*Conn)

// WithObservability records the connection's metrics into reg instead of the
// process-wide obs.Default() registry.
func WithObservability(reg *obs.Registry) Option {
	return func(c *Conn) { c.reg = reg }
}

// WithMaxRetries bounds transparent redial attempts for idempotent calls on
// transport errors; 0 disables reconnection entirely.
func WithMaxRetries(n int) Option {
	return func(c *Conn) { c.retries = n }
}

// WithTracer installs the distributed tracer client operations start traces
// under (head sampling) and join (a trace already on the caller's context).
// Defaults to obs.DefaultTracer().
func WithTracer(t *obs.Tracer) Option {
	return func(c *Conn) { c.tracer = t }
}

// Conn is a client connection to one MIE server.
//
// Every round trip records a client_request_seconds{kind=...} latency
// histogram and tx/rx byte counters, so the client-vs-cloud latency split of
// the paper's Table 2 can be read off a live deployment: client-side wall
// time is client_request_seconds, the cloud's share of it is the matching
// server_request_seconds, and the difference is the network.
type Conn struct {
	addr    string
	meter   *device.Meter
	reg     *obs.Registry
	tracer  *obs.Tracer
	retries int

	mu     sync.Mutex
	token  string
	tr     *transport
	closed bool
	dialed bool // a transport has connected at least once
}

// Dial connects to an MIE server and runs the hello handshake. meter may be
// nil.
func Dial(addr string, meter *device.Meter, opts ...Option) (*Conn, error) {
	c := &Conn{addr: addr, meter: meter, retries: defaultMaxRetries}
	for _, opt := range opts {
		opt(c)
	}
	if c.reg == nil {
		c.reg = obs.Default()
	}
	if c.tracer == nil {
		c.tracer = obs.DefaultTracer()
	}
	if _, err := c.transport(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close shuts the connection down. In-flight calls fail with ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.tr != nil {
		c.tr.fail(ErrClosed)
		c.tr = nil
	}
	return nil
}

// SetToken attaches a bearer authorization token (minted by the repository
// owner's auth.Authority) to every subsequent request.
func (c *Conn) SetToken(token string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.token = token
}

func (c *Conn) tokenSnapshot() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

// transport returns the live transport, redialing if the previous one was
// poisoned. Redials after the initial connection are counted as reconnects.
func (c *Conn) transport() (*transport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.tr != nil {
		select {
		case <-c.tr.done: // poisoned; discard and redial below
			c.tr = nil
		default:
			return c.tr, nil
		}
	}
	t, err := c.connect()
	if err != nil {
		return nil, err
	}
	if c.dialed {
		c.reg.Counter("client_reconnects_total").Inc()
	}
	c.dialed = true
	c.tr = t
	return t, nil
}

// connect dials, runs the handshake and starts the mux goroutines.
// Handshake traffic is connection setup, not an operation, so it is not
// metered.
func (c *Conn) connect() (*transport, error) {
	tcp, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	if _, err := Handshake(tcp); err != nil {
		_ = tcp.Close()
		return nil, err
	}
	t := &transport{
		tcp:    tcp,
		reg:    c.reg,
		calls:  make(map[uint64]chan demuxed),
		writeq: make(chan outFrame, writeQueueDepth),
		done:   make(chan struct{}),
	}
	go t.writeLoop()
	go t.readLoop()
	return t, nil
}

// Handshake runs the hello exchange on a freshly connected socket and
// returns the peer's HelloResp. A peer that refuses the version, or selects
// another one, yields an error matching wire.ErrUnsupportedVersion.
func Handshake(conn net.Conn) (wire.HelloResp, error) {
	var hr wire.HelloResp
	hello, err := wire.NewEnvelope(wire.KindHello, "", 0, 0, wire.Hello{MaxVersion: wire.ProtocolVersion})
	if err == nil {
		_, err = wire.WriteEnvelope(conn, hello)
	}
	if err != nil {
		return hr, fmt.Errorf("client: hello: %w", err)
	}
	env, _, err := wire.ReadFrame(conn)
	if err != nil {
		return hr, fmt.Errorf("client: hello response: %w", err)
	}
	switch env.Kind {
	case wire.KindHelloResp:
		if err := env.Decode(&hr); err != nil {
			return hr, fmt.Errorf("client: hello response: %w", err)
		}
		if hr.Version != wire.ProtocolVersion {
			return hr, fmt.Errorf("client: %w: peer selected %d, need %d", wire.ErrUnsupportedVersion, hr.Version, wire.ProtocolVersion)
		}
		return hr, nil
	case wire.KindError:
		return hr, fmt.Errorf("client: hello refused: %w", errorFrame(env))
	}
	return hr, fmt.Errorf("client: peer answered hello with %s", env.Kind)
}

// errorFrame turns a KindError envelope into the RemoteError it carries.
func errorFrame(env *wire.Envelope) error {
	var ack wire.Ack
	if err := env.Decode(&ack); err == nil && ack.Err != "" {
		return remoteError(&ack.Status)
	}
	return &RemoteError{Msg: "server rejected request"}
}

// demuxed is one response frame routed to its caller.
type demuxed struct {
	env *wire.Envelope
	n   int // bytes on the wire
}

type writeResult struct {
	n   int
	err error
}

type outFrame struct {
	env *wire.Envelope
	res chan writeResult // nil for fire-and-forget frames (Cancel)
}

// transport is one TCP connection plus its mux state. It is immutable after
// connect except for the call table; once poisoned (fail) it is never
// reused — Conn dials a fresh one.
type transport struct {
	tcp    net.Conn
	reg    *obs.Registry
	writeq chan outFrame
	done   chan struct{}

	mu     sync.Mutex
	nextID uint64
	calls  map[uint64]chan demuxed
	err    error

	failOnce sync.Once
}

// fail poisons the transport exactly once: records the cause, drains the
// call table (closing each pending caller's channel), and closes the socket.
// Only the owner of a live map entry may send on its channel, and fail
// removes entries before closing them, so close never races a send.
func (t *transport) fail(err error) {
	t.failOnce.Do(func() {
		t.mu.Lock()
		t.err = err
		for id, ch := range t.calls {
			delete(t.calls, id)
			close(ch)
		}
		t.mu.Unlock()
		close(t.done)
		_ = t.tcp.Close()
	})
}

// failure returns the poison cause.
func (t *transport) failure() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return errors.New("client: connection failed")
}

// register allocates a request ID and installs the caller's response channel.
func (t *transport) register(ch chan demuxed) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.calls[t.nextID] = ch
	return t.nextID
}

// unregister removes a call table entry, if still present.
func (t *transport) unregister(id uint64) {
	t.mu.Lock()
	delete(t.calls, id)
	t.mu.Unlock()
}

// abandon gives up on an in-flight request: removes its table entry (so a
// late response is dropped by the demux) and emits a best-effort Cancel
// frame telling the server to stop working on it.
func (t *transport) abandon(id uint64) {
	t.mu.Lock()
	_, pending := t.calls[id]
	delete(t.calls, id)
	t.mu.Unlock()
	if !pending {
		return // already answered or transport already failed
	}
	env, err := wire.NewEnvelope(wire.KindCancel, "", 0, 0, wire.CancelReq{ID: id})
	if err != nil {
		return
	}
	select {
	case t.writeq <- outFrame{env: env}:
		t.reg.Counter("client_cancel_frames_total").Inc()
	case <-t.done:
	default: // queue full: skip — the server just finishes the request
	}
}

// writeLoop is the single writer: it serializes all outgoing frames onto the
// socket and reports each frame's fate to its sender. A write error poisons
// the transport — the peer's read position is unknowable mid-frame.
func (t *transport) writeLoop() {
	for {
		select {
		case f := <-t.writeq:
			n, err := wire.WriteEnvelope(t.tcp, f.env)
			t.reg.Counter("client_tx_bytes_total").Add(int64(n))
			if f.res != nil {
				f.res <- writeResult{n, err}
			}
			if err != nil {
				t.fail(fmt.Errorf("client: write %s: %w", f.env.Kind, err))
				return
			}
		case <-t.done:
			return
		}
	}
}

// readLoop is the demux: it routes each response frame to the caller whose
// request ID it echoes. Frames for unknown IDs are responses to abandoned
// (canceled) requests and are dropped. A read error poisons the transport.
func (t *transport) readLoop() {
	for {
		env, n, err := wire.ReadFrame(t.tcp)
		if err != nil {
			t.fail(fmt.Errorf("client: read response: %w", err))
			return
		}
		t.reg.Counter("client_rx_bytes_total").Add(int64(n))
		t.mu.Lock()
		ch, ok := t.calls[env.ID]
		if ok {
			delete(t.calls, env.ID)
		}
		t.mu.Unlock()
		if !ok {
			t.reg.Counter("client_late_replies_total").Inc()
			continue
		}
		ch <- demuxed{env, n} // buffered; entry removal above makes this the only send
	}
}

// muxExchange sends one pre-built envelope on the transport and awaits the
// response echoing its ID. The envelope's ID is (re)stamped with
// a fresh request ID for this transport.
func (c *Conn) muxExchange(ctx context.Context, t *transport, env *wire.Envelope) (*wire.Envelope, int, int, error) {
	ch := make(chan demuxed, 1)
	id := t.register(ch)
	defer t.unregister(id)
	env.ID = id
	res := make(chan writeResult, 1)
	select {
	case t.writeq <- outFrame{env: env, res: res}:
	case <-t.done:
		return nil, 0, 0, t.failure()
	case <-ctx.Done():
		return nil, 0, 0, ctx.Err()
	}
	var up int
	select {
	case wr := <-res:
		if wr.err != nil {
			return nil, 0, 0, wr.err
		}
		up = wr.n
	case <-t.done:
		// A peer that answers and hangs up can poison the transport before
		// this goroutine has picked up its own write result.
		select {
		case wr := <-res:
			up = wr.n
		default:
		}
		return t.settle(ch, up)
	}
	select {
	case d, ok := <-ch:
		if !ok {
			return nil, up, 0, t.failure()
		}
		return d.env, up, d.n, nil
	case <-ctx.Done():
		t.abandon(id)
		return nil, up, 0, ctx.Err()
	case <-t.done:
		return t.settle(ch, up)
	}
}

// settle ends an exchange on a poisoned transport: teardown may race a
// response already delivered to ch, and that response still counts.
func (t *transport) settle(ch chan demuxed, up int) (*wire.Envelope, int, int, error) {
	select {
	case d, ok := <-ch:
		if ok {
			return d.env, up, d.n, nil
		}
	default:
	}
	return nil, up, 0, t.failure()
}

// transient reports whether err is a transport-level failure worth a
// reconnect attempt — as opposed to a server-reported rejection, a caller
// cancellation, an explicit Close, or a protocol violation, none of which a
// fresh connection can fix.
func transient(err error) bool {
	var re *RemoteError
	switch {
	case errors.As(err, &re):
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, ErrClosed):
		return false
	case wire.IsMalformed(err), errors.Is(err, wire.ErrUnsupportedVersion):
		return false
	}
	return true
}

// exchange sends a request envelope and returns the response frame echoing
// it, with the bytes that moved each way. The envelope is copied by value and
// only its per-hop fields are re-stamped — the multiplexing ID and the
// relative deadline — so everything else survives the hop untouched. A
// transport error on a kind wire's table marks idempotent is retried on a
// fresh connection with capped exponential backoff; any other kind surfaces
// the error to the caller, who alone knows whether re-sending is safe.
func (c *Conn) exchange(ctx context.Context, env *wire.Envelope) (resp *wire.Envelope, up, down int, err error) {
	backoff := reconnectBackoffMin
	for attempt := 0; ; attempt++ {
		out := *env
		out.TimeoutNanos = 0
		if dl, ok := ctx.Deadline(); ok {
			timeout := time.Until(dl)
			if timeout <= 0 {
				return nil, 0, 0, context.DeadlineExceeded
			}
			out.TimeoutNanos = int64(timeout)
		}
		var t *transport
		if t, err = c.transport(); err == nil {
			resp, up, down, err = c.muxExchange(ctx, t, &out)
		}
		if err == nil {
			return resp, up, down, nil
		}
		if !wire.Idempotent(env.Kind) || attempt >= c.retries || !transient(err) || ctx.Err() != nil {
			return nil, 0, 0, err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, 0, 0, ctx.Err()
		}
		if backoff *= 2; backoff > reconnectBackoffMax {
			backoff = reconnectBackoffMax
		}
	}
}

// roundTrip sends one request and decodes its response into resp,
// accounting the bytes to the meter's Network category.
func (c *Conn) roundTrip(ctx context.Context, kind string, req, resp interface{}) (err error) {
	// Join the caller's trace, or — when none — let the head sampler decide
	// whether this operation starts a client-originated one. A trace started
	// here is also finished here (the operation is its root); a caller-owned
	// trace is left for the caller to finish.
	if obs.TraceFromContext(ctx) == nil {
		var at *obs.ActiveTrace
		ctx, at = c.tracer.StartTrace(ctx)
		if at != nil {
			defer at.Finish()
		}
	}
	var sp *obs.Span
	ctx, sp = obs.StartSpan(ctx, c.reg, "op/"+kind)
	start := time.Now()
	defer func() {
		sp.SetError(err)
		sp.End()
		c.reg.Histogram(obs.L("client_request_seconds", "kind", kind)).Observe(time.Since(start).Seconds())
		if err != nil {
			c.reg.Counter(obs.L("client_request_errors_total", "kind", kind)).Inc()
		}
	}()
	env, err := wire.NewEnvelope(kind, c.tokenSnapshot(), 0, 0, req)
	if err != nil {
		return err
	}
	stampTrace(ctx, env)
	out, up, down, err := c.exchange(ctx, env)
	if err != nil {
		return err
	}
	if c.meter != nil {
		c.meter.AddTransfer(device.Network, int64(up), int64(down))
	}
	if out.Kind == wire.KindError {
		return errorFrame(out)
	}
	return out.Decode(resp)
}

// call is roundTrip for the kinds whose response opens with a wire.Status:
// a failure the server reports there comes back as a RemoteError. (It is
// not a failed round trip, and the request metrics do not count it as one.)
func (c *Conn) call(ctx context.Context, kind string, req interface{}, resp interface{ Failure() *wire.Status }) error {
	if err := c.roundTrip(ctx, kind, req, resp); err != nil {
		return err
	}
	return remoteError(resp.Failure())
}

// CreateRepository asks the server to initialize a repository.
func (c *Conn) CreateRepository(ctx context.Context, repoID string, opts wire.RepoOptions) error {
	return c.call(ctx, wire.KindCreateRepo, wire.CreateRepoReq{RepoID: repoID, Opts: opts}, new(wire.Ack))
}

// Train triggers cloud-side training and blocks until it completes (free for
// the client: the only cost is the request round trip, which is the point of
// MIE). On a multiplexed connection other requests proceed meanwhile; use
// TrainStart for a non-blocking handle.
func (c *Conn) Train(ctx context.Context, repoID string) error {
	return c.call(ctx, wire.KindTrain, wire.TrainReq{RepoID: repoID}, new(wire.Ack))
}

// trainJob runs one of the three train-job kinds.
func (c *Conn) trainJob(ctx context.Context, kind string, req interface{}) (core.TrainJobStatus, error) {
	var resp wire.TrainJobResp
	if err := c.call(ctx, kind, req, &resp); err != nil {
		return core.TrainJobStatus{}, err
	}
	return resp.Job, nil
}

// TrainStart launches an asynchronous server-side training job and returns
// its status handle immediately. If a job is already running its handle is
// returned instead of starting another.
func (c *Conn) TrainStart(ctx context.Context, repoID string) (core.TrainJobStatus, error) {
	return c.trainJob(ctx, wire.KindTrainStart, wire.TrainReq{RepoID: repoID})
}

// TrainStatus polls a training job.
func (c *Conn) TrainStatus(ctx context.Context, repoID string, jobID uint64) (core.TrainJobStatus, error) {
	return c.trainJob(ctx, wire.KindTrainStatus, wire.TrainJobReq{RepoID: repoID, JobID: jobID})
}

// TrainWait blocks until a training job finishes or ctx expires. If the
// request deadline lapses server-side first, the job's still-running status
// is returned without error; callers poll again or extend the deadline.
func (c *Conn) TrainWait(ctx context.Context, repoID string, jobID uint64) (core.TrainJobStatus, error) {
	return c.trainJob(ctx, wire.KindTrainWait, wire.TrainJobReq{RepoID: repoID, JobID: jobID})
}

// Update uploads a prepared encrypted update.
func (c *Conn) Update(ctx context.Context, repoID string, up *core.Update) error {
	return c.call(ctx, wire.KindUpdate, wire.UpdateReq{RepoID: repoID, Update: *up}, new(wire.Ack))
}

// Remove deletes an object from the repository.
func (c *Conn) Remove(ctx context.Context, repoID, objectID string) error {
	return c.call(ctx, wire.KindRemove, wire.RemoveReq{RepoID: repoID, ObjectID: objectID}, new(wire.Ack))
}

// Search runs a prepared multimodal query and returns ranked hits.
func (c *Conn) Search(ctx context.Context, repoID string, q *core.Query) ([]core.SearchHit, error) {
	var resp wire.SearchResp
	if err := c.call(ctx, wire.KindSearch, wire.SearchReq{RepoID: repoID, Query: *q}, &resp); err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// Get fetches one stored ciphertext and its owner.
func (c *Conn) Get(ctx context.Context, repoID, objectID string) (ciphertext []byte, owner string, err error) {
	var resp wire.GetResp
	if err := c.call(ctx, wire.KindGet, wire.GetReq{RepoID: repoID, ObjectID: objectID}, &resp); err != nil {
		return nil, "", err
	}
	return resp.Ciphertext, resp.Owner, nil
}

// stampTrace copies the caller's span context, if any, onto an outgoing
// envelope so the server joins the same trace.
func stampTrace(ctx context.Context, env *wire.Envelope) {
	if sc := obs.SpanContextFrom(ctx); sc.TraceID != 0 {
		env.TraceID = sc.TraceID
		env.SpanID = sc.SpanID
		env.TraceSampled = sc.Sampled
	}
}

// FetchTrace retrieves the server-side half of a completed trace by id —
// how mie-client -trace shows the cloud's span tree for the request it just
// made. Call it with a fresh (untraced) context so the fetch itself does not
// produce another trace under the same id.
func (c *Conn) FetchTrace(ctx context.Context, traceID uint64) (*obs.Trace, error) {
	var resp wire.TraceResp
	if err := c.roundTrip(ctx, wire.KindTraceGet, wire.TraceGetReq{TraceID: traceID}, &resp); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, &RemoteError{Msg: resp.Err}
	}
	return &resp.Trace, nil
}
