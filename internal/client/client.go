// Package client provides the network bindings of the MIE client component:
// it speaks the wire protocol to a server hosting core.Service, and couples
// each exchange to a device.Meter so the figures' Network sub-operation can
// be attributed per call.
//
// A Conn runs the hello handshake at dial time and then multiplexes: callers
// write their own request frames (wire.FrameConn), one reader goroutine
// demuxes responses by request ID, and any number of callers share the
// single TCP connection with their requests in flight concurrently —
// sixteen pipelined searches cost one connection, not sixteen. The caller's
// context bounds its whole call, and its deadline rides along on the wire;
// canceling it mid-call emits a best-effort Cancel frame so the server can
// abandon the work. A server that cannot speak wire.ProtocolVersion fails
// the dial with an error matching wire.ErrUnsupportedVersion.
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
	maxRetries          = 3
	reconnectBackoffMin = 25 * time.Millisecond
	reconnectBackoffMax = 800 * time.Millisecond
)

// dialTimeout bounds DialHello, so a peer that accepts and never answers
// cannot hold a caller forever.
const dialTimeout = 5 * time.Second

// Option customizes a Conn.
type Option func(*Conn)

// WithObservability records the connection's metrics into reg instead of the
// process-wide obs.Default() registry.
func WithObservability(reg *obs.Registry) Option {
	return func(c *Conn) { c.reg = reg }
}

// Conn is a client connection to one MIE server.
//
// Every round trip records a client_request_seconds{kind=...} latency
// histogram and tx/rx byte counters, so the client-vs-cloud latency split of
// the paper's Table 2 can be read off a live deployment: client-side wall
// time is client_request_seconds, the cloud's share of it is the matching
// server_request_seconds, and the difference is the network.
type Conn struct {
	addr  string
	meter *device.Meter
	reg   *obs.Registry

	dialing chan struct{} // holds a token while a transport is being dialed

	// Per-kind instruments, each resolved on its kind's first call: kinds
	// (request kind -> *kindMetrics) for roundTrip, forwardSeconds (request
	// kind -> *obs.Histogram) for Forward.
	kinds, forwardSeconds sync.Map

	mu     sync.Mutex
	token  string
	tr     *transport
	closed bool
	dialed bool // a transport has connected at least once
}

// Dial connects to an MIE server and runs the hello handshake. meter may be
// nil.
func Dial(addr string, meter *device.Meter, opts ...Option) (*Conn, error) {
	c := NewConn(addr, meter, opts...)
	if _, err := c.transport(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// NewConn is Dial without the dial: the Conn connects on its first call,
// bounded by that call's context.
func NewConn(addr string, meter *device.Meter, opts ...Option) *Conn {
	c := &Conn{addr: addr, meter: meter, dialing: make(chan struct{}, 1)}
	for _, opt := range opts {
		opt(c)
	}
	if c.reg == nil {
		c.reg = obs.Default()
	}
	return c
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
// poisoned; redials after the first are counted as reconnects. One caller
// dials, outside c.mu; the others wait for it while their ctx allows.
func (c *Conn) transport(ctx context.Context) (*transport, error) {
	if t, err := c.live(); t != nil || err != nil {
		return t, err
	}
	select {
	case c.dialing <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.dialing }()
	if t, err := c.live(); t != nil || err != nil {
		return t, err
	}
	fc, _, err := DialHello(ctx, c.addr) // connection setup, not metered
	if err != nil {
		return nil, err
	}
	t := c.newTransport(fc)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		t.fail(ErrClosed)
		return nil, ErrClosed
	}
	if c.dialed {
		c.reg.Counter("client_reconnects_total").Inc()
	}
	c.dialed = true
	c.tr = t
	return t, nil
}

// live returns the current transport unless it is poisoned (nil then), or
// ErrClosed after Close.
func (c *Conn) live() (*transport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.tr != nil && c.tr.failure() != nil {
		c.tr = nil
	}
	return c.tr, nil
}

// newTransport puts a call table on a connection that has said hello and
// starts its demuxing reader.
func (c *Conn) newTransport(fc *wire.FrameConn) *transport {
	t := &transport{
		fc:      fc,
		reg:     c.reg,
		txBytes: c.reg.Counter("client_tx_bytes_total"),
		rxBytes: c.reg.Counter("client_rx_bytes_total"),
		calls:   make(map[uint64]chan demuxed),
	}
	go t.readLoop()
	return t
}

// DialHello connects to addr and runs the hello exchange, both bounded by
// ctx and by dialTimeout, and returns the framed connection and the peer's
// HelloResp.
func DialHello(ctx context.Context, addr string) (*wire.FrameConn, wire.HelloResp, error) {
	ctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	var d net.Dialer
	tcp, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, wire.HelloResp{}, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	fc := wire.NewFrameConn(tcp)
	hr, err := Handshake(ctx, fc)
	if err != nil {
		_ = fc.Close()
		return nil, hr, err
	}
	return fc, hr, nil
}

// Handshake runs the hello exchange on a freshly connected socket and
// returns the peer's HelloResp. The exchange ends with ctx, by its deadline
// or its cancellation. A peer that refuses the version, or selects another
// one, yields an error matching wire.ErrUnsupportedVersion.
func Handshake(ctx context.Context, fc *wire.FrameConn) (hr wire.HelloResp, err error) {
	stop := context.AfterFunc(ctx, func() { _ = fc.Close() })
	defer func() {
		if !stop() { // ctx ended, and with it the exchange
			hr, err = wire.HelloResp{}, fmt.Errorf("client: hello: %w", ctx.Err())
		}
	}()
	hello, err := wire.NewEnvelope(wire.KindHello, "", 0, 0, wire.Hello{MaxVersion: wire.ProtocolVersion})
	if err == nil {
		_, err = fc.WriteFrame(ctx, hello)
	}
	if err != nil {
		return hr, fmt.Errorf("client: hello: %w", err)
	}
	env, _, err := fc.ReadFrame()
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

// transport is one framed connection plus its call table; one reader
// goroutine routes each response to its caller. Once poisoned (fail) it is
// never reused — Conn dials a fresh one.
type transport struct {
	fc               *wire.FrameConn
	reg              *obs.Registry
	txBytes, rxBytes *obs.Counter

	mu     sync.Mutex
	nextID uint64
	calls  map[uint64]chan demuxed
	err    error // poison cause; set once, before the call table drains

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
		_ = t.fc.Close()
	})
}

// failure returns the poison cause; nil while the transport is live.
func (t *transport) failure() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// register allocates a request ID and installs the caller's response
// channel; it fails once the transport is poisoned, whose table no longer
// drains.
func (t *transport) register(ch chan demuxed) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return 0, t.err
	}
	t.nextID++
	t.calls[t.nextID] = ch
	return t.nextID, nil
}

// unregister removes a call table entry, if still present.
func (t *transport) unregister(id uint64) {
	t.mu.Lock()
	delete(t.calls, id)
	t.mu.Unlock()
}

// abandon gives up on an in-flight request: removes its table entry (so a
// late response is dropped by the demux) and emits a best-effort Cancel
// frame telling the server to stop working on it — skipped when the write
// slot is busy or the peer does not take it at once (the server may just
// finish the work). Only a Cancel cut mid-frame poisons the transport.
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
	n, err := t.fc.TryWriteFrame(env)
	t.txBytes.Add(int64(n))
	switch {
	case err != nil && n > 0:
		t.fail(fmt.Errorf("client: write %s: %w", env.Kind, err))
	case err == nil && n > 0:
		t.reg.Counter("client_cancel_frames_total").Inc()
	}
}

// readLoop is the demux: it routes each response frame to the caller whose
// request ID it echoes. Frames for unknown IDs are responses to abandoned
// (canceled) requests and are dropped. A read error poisons the transport.
func (t *transport) readLoop() {
	for {
		env, n, err := t.fc.ReadFrame()
		if err != nil {
			t.fail(fmt.Errorf("client: read response: %w", err))
			return
		}
		t.rxBytes.Add(int64(n))
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
// response echoing its ID. The envelope's ID is (re)stamped with a fresh
// request ID for this transport. ctx bounds the wait for the write slot,
// the write and the wait for the response; a failed write poisons the
// transport unless ctx ended it before a byte went out.
func (c *Conn) muxExchange(ctx context.Context, t *transport, env *wire.Envelope) (*wire.Envelope, int, int, error) {
	ch := make(chan demuxed, 1)
	id, err := t.register(ch)
	if err != nil {
		return nil, 0, 0, err
	}
	defer t.unregister(id)
	env.ID = id
	up, err := t.fc.WriteFrame(ctx, env)
	t.txBytes.Add(int64(up))
	if err != nil {
		if up == 0 && ctx.Err() != nil {
			return nil, 0, 0, ctx.Err() // nothing was sent: the stream is intact
		}
		t.fail(fmt.Errorf("client: write %s: %w", env.Kind, err))
		return nil, up, 0, t.failure()
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
	}
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
		if t, err = c.transport(ctx); err == nil {
			resp, up, down, err = c.muxExchange(ctx, t, &out)
		}
		if err == nil {
			return resp, up, down, nil
		}
		if !wire.Idempotent(env.Kind) || attempt >= maxRetries || !transient(err) || ctx.Err() != nil {
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

// kindMetrics is one request kind's share of a Conn's instruments: the name
// of its root span and its client_request_seconds histogram. The error
// counter stays looked up as it comes, so a kind that never failed has none.
type kindMetrics struct {
	span    string
	seconds *obs.Histogram
}

// kindMetrics returns a kind's instruments, resolving them on its first
// call. Kinds are wire's fixed set, so the cache stays that small.
func (c *Conn) kindMetrics(kind string) *kindMetrics {
	if km, ok := c.kinds.Load(kind); ok {
		return km.(*kindMetrics)
	}
	km, _ := c.kinds.LoadOrStore(kind, &kindMetrics{
		span:    "op/" + kind,
		seconds: c.reg.Histogram(obs.L("client_request_seconds", "kind", kind)),
	})
	return km.(*kindMetrics)
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
		ctx, at = obs.DefaultTracer().StartTrace(ctx)
		if at != nil {
			defer at.Finish()
		}
	}
	km := c.kindMetrics(kind)
	var sp *obs.Span
	ctx, sp = obs.StartSpan(ctx, c.reg, km.span)
	start := time.Now()
	defer func() {
		sp.SetError(err)
		sp.End()
		km.seconds.Observe(time.Since(start).Seconds())
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

// Train starts (or joins) cloud-side training and waits until it completes
// (free for the client: the only cost is the round trips, which is the point
// of MIE). A failed job comes back as its error. If ctx ends first, Train
// returns ctx's error and the job keeps running on the server. On a
// multiplexed connection other requests proceed meanwhile; use TrainStart for
// a non-blocking handle.
func (c *Conn) Train(ctx context.Context, repoID string) error {
	st, err := c.TrainStart(ctx, repoID)
	if err != nil {
		return err
	}
	if st, err = c.TrainWait(ctx, repoID, st.JobID); err != nil {
		return err
	}
	if st.State == core.TrainFailed {
		return errors.New(st.Err)
	}
	return nil
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

// TrainWait blocks until a training job finishes or ctx ends; then it
// returns the job's latest status alongside ctx's error. The server answers
// "still running" when the request's deadline lapses on its side first, and
// TrainWait asks again until ctx itself ends.
func (c *Conn) TrainWait(ctx context.Context, repoID string, jobID uint64) (core.TrainJobStatus, error) {
	for {
		st, err := c.trainJob(ctx, wire.KindTrainWait, wire.TrainJobReq{RepoID: repoID, JobID: jobID})
		if err != nil || st.State != core.TrainRunning {
			return st, err
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
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
