package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mie/internal/client"
	"mie/internal/obs"
	"mie/internal/wire"
)

// Health-probe cadence and down-node retry backoff bounds.
const (
	defaultHealthInterval = 500 * time.Millisecond
	probeBackoffMin       = 25 * time.Millisecond
	probeBackoffMax       = time.Second
	probeTimeout          = 2 * time.Second
)

// Node is one cluster member in the router's explicit membership list.
type Node struct {
	Name string
	Addr string
}

// Config configures a Router.
type Config struct {
	// Nodes is the explicit cluster membership. The first entry is the
	// leader unless Leader names another member.
	Nodes []Node
	// Leader is the name of the leader node (mutations and training are
	// always routed to it). Defaults to Nodes[0].
	Leader string
	// VNodes is the number of ring points per node (default 64).
	VNodes int
	// HealthInterval is the per-node probe cadence (default 500ms).
	HealthInterval time.Duration
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Registry receives router metrics (default obs.Default()).
	Registry *obs.Registry
	// Logger, when set, receives routing warnings.
	Logger *slog.Logger
}

// backend is the router's view of one node: a pooled connection plus the
// last probed health state.
type backend struct {
	name string
	addr string
	conn *client.Conn

	healthy  atomic.Bool
	caughtUp atomic.Bool
	isLeader bool
}

// eligible reports whether reads may be routed to this backend: it answers
// probes and (for followers) has replicated everything it has received.
func (b *backend) eligible() bool {
	return b.healthy.Load() && (b.isLeader || b.caughtUp.Load())
}

// Router accepts wire connections and relays each request to the right
// node: mutations and training to the leader, reads to the repository's
// ring-preferred node with failover along the ring. It is a pure frame
// proxy: it routes on the envelope header and the repository id that opens
// every repository-scoped body (wire.Envelope.RepoID) and passes body bytes
// through in both directions without decoding or re-encoding them.
type Router struct {
	cfg      Config
	ring     *Ring
	ln       net.Listener
	leader   *backend
	backends map[string]*backend
	reg      *obs.Registry

	routedC   *obs.Counter
	failoverC *obs.Counter
	errorsC   *obs.Counter

	dialMu sync.Mutex

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Start launches a router over cfg's membership. Every node is probed once
// synchronously so routing decisions are informed from the first request.
func Start(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("router: no nodes configured")
	}
	if cfg.Leader == "" {
		cfg.Leader = cfg.Nodes[0].Name
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = defaultHealthInterval
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	names := make([]string, 0, len(cfg.Nodes))
	backends := make(map[string]*backend, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.Name == "" || n.Addr == "" {
			return nil, fmt.Errorf("router: node %+v needs name and addr", n)
		}
		if backends[n.Name] != nil {
			return nil, fmt.Errorf("router: duplicate node name %q", n.Name)
		}
		backends[n.Name] = &backend{name: n.Name, addr: n.Addr, isLeader: n.Name == cfg.Leader}
		names = append(names, n.Name)
	}
	leader := backends[cfg.Leader]
	if leader == nil {
		return nil, fmt.Errorf("router: leader %q is not a member", cfg.Leader)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("router: listen: %w", err)
	}
	r := &Router{
		cfg:       cfg,
		ring:      NewRing(names, cfg.VNodes),
		ln:        ln,
		leader:    leader,
		backends:  backends,
		reg:       reg,
		routedC:   reg.Counter("router_requests_total"),
		failoverC: reg.Counter("router_failovers_total"),
		errorsC:   reg.Counter("router_errors_total"),
		done:      make(chan struct{}),
	}
	for _, b := range backends {
		r.probe(b)
		r.wg.Add(1)
		go r.healthLoop(b)
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the router's client-facing listen address.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// Ring exposes the placement ring (the cluster harness uses it to pick
// repository names that spread across all nodes).
func (r *Router) Ring() *Ring { return r.ring }

// Close stops accepting, tears down backend connections and waits for the
// background loops.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		close(r.done)
		_ = r.ln.Close()
	})
	r.wg.Wait()
	for _, b := range r.backends {
		if b.conn != nil {
			_ = b.conn.Close()
		}
	}
	return nil
}

func (r *Router) closed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// probe refreshes one backend's health from a hello handshake.
func (r *Router) probe(b *backend) bool {
	hr, err := client.Hello(b.addr, probeTimeout)
	if err != nil {
		b.healthy.Store(false)
		return false
	}
	b.healthy.Store(true)
	b.caughtUp.Store(hr.CaughtUp)
	return true
}

// healthLoop probes one backend forever: at the configured cadence while it
// is up, with capped backoff while it is down so recovery is noticed fast
// without hammering a dead address.
func (r *Router) healthLoop(b *backend) {
	defer r.wg.Done()
	backoff := probeBackoffMin
	for {
		wait := r.cfg.HealthInterval
		if !b.healthy.Load() {
			wait = backoff
			if backoff *= 2; backoff > probeBackoffMax {
				backoff = probeBackoffMax
			}
		} else {
			backoff = probeBackoffMin
		}
		select {
		case <-time.After(wait):
		case <-r.done:
			return
		}
		r.probe(b)
	}
}

func (r *Router) acceptLoop() {
	defer r.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			if r.closed() {
				return
			}
			select {
			case <-time.After(backoff):
			case <-r.done:
				return
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		r.wg.Add(1)
		go r.serveConn(conn)
	}
}

// connState is one client connection's relay state: the write path (shared
// by concurrent relays) and the in-flight map for Cancel.
type connState struct {
	conn net.Conn
	wmu  sync.Mutex

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc
}

func (cs *connState) write(env *wire.Envelope) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	_, err := wire.WriteEnvelope(cs.conn, env)
	return err
}

func (cs *connState) writeError(id uint64, msg string) error {
	env, err := wire.NewEnvelope(wire.KindError, "", id, 0, wire.Ack{Status: wire.Status{Err: msg}})
	if err != nil {
		return err
	}
	return cs.write(env)
}

func (cs *connState) track(id uint64, cancel context.CancelFunc) {
	cs.mu.Lock()
	cs.inflight[id] = cancel
	cs.mu.Unlock()
}

func (cs *connState) untrack(id uint64) {
	cs.mu.Lock()
	delete(cs.inflight, id)
	cs.mu.Unlock()
}

func (cs *connState) cancel(id uint64) {
	cs.mu.Lock()
	fn := cs.inflight[id]
	cs.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (r *Router) serveConn(conn net.Conn) {
	defer r.wg.Done()
	defer func() { _ = conn.Close() }()
	// Tear the socket down on Close so the read loop unblocks.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-r.done:
			_ = conn.Close()
		case <-stop:
		}
	}()
	cs := &connState{conn: conn, inflight: make(map[uint64]context.CancelFunc)}
	var relays sync.WaitGroup
	defer relays.Wait()
	for {
		env, _, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		switch env.Kind {
		case wire.KindHello:
			reply, _ := wire.AnswerHello(env, wire.HelloResp{Role: "router", CaughtUp: true})
			if cs.write(reply) != nil {
				return
			}
		case wire.KindCancel:
			var req wire.CancelReq
			if env.Decode(&req) == nil {
				cs.cancel(req.ID)
			}
		case wire.KindReplAck:
			// Acks are node-to-node; through a router they have no target.
		case wire.KindReplSubscribe:
			_ = cs.writeError(env.ID, "router: replication streams must connect to a node directly")
		default:
			relays.Add(1)
			go func() {
				defer relays.Done()
				r.relay(cs, env)
			}()
		}
	}
}

// readTargets returns the candidate backends for a read, in preference
// order: the repository's ring walk when the request names one (peeked from
// the head of the body), otherwise just the leader.
func (r *Router) readTargets(env *wire.Envelope) []*backend {
	repoID := env.RepoID()
	if repoID == "" {
		return []*backend{r.leader}
	}
	prefer := r.ring.Prefer(repoID)
	out := make([]*backend, 0, len(prefer))
	for _, name := range prefer {
		out = append(out, r.backends[name])
	}
	return out
}

// relay routes one request to its node and writes the node's response back
// under the origin ID: the leader for the kinds wire's table marks
// leader-only, the ring for the rest. Reads fail over along the ring: a
// transport error marks the backend unhealthy and the next eligible
// candidate is tried.
func (r *Router) relay(cs *connState, env *wire.Envelope) {
	r.routedC.Inc()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if env.TimeoutNanos > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(env.TimeoutNanos))
		defer cancel()
	}
	cs.track(env.ID, cancel)
	defer cs.untrack(env.ID)

	candidates := []*backend{r.leader}
	if !wire.LeaderOnly(env.Kind) {
		candidates = r.readTargets(env)
	}
	r.relayTo(ctx, cs, env, candidates)
}

// relayTo tries candidates in order, preferring eligible ones, and relays
// the first response. Ineligible backends are still tried as a last resort:
// a stale health bit must not turn a servable request into an error.
func (r *Router) relayTo(ctx context.Context, cs *connState, env *wire.Envelope, candidates []*backend) {
	ordered := make([]*backend, 0, len(candidates))
	for _, b := range candidates {
		if b.eligible() {
			ordered = append(ordered, b)
		}
	}
	for _, b := range candidates {
		if !b.eligible() {
			ordered = append(ordered, b)
		}
	}
	var lastErr error
	for i, b := range ordered {
		if i > 0 {
			r.failoverC.Inc()
		}
		resp, err := r.forward(ctx, b, env)
		if err == nil {
			out := *resp
			out.ID = env.ID
			if werr := cs.write(&out); werr != nil && r.cfg.Logger != nil {
				r.cfg.Logger.Warn("router: response relay failed", "err", werr.Error())
			}
			return
		}
		lastErr = err
		b.healthy.Store(false)
		if !wire.Idempotent(env.Kind) {
			break // a mutation may have executed; never blind-retry
		}
	}
	r.errorsC.Inc()
	msg := "router: no reachable node"
	if lastErr != nil {
		msg = "router: " + lastErr.Error()
	}
	if err := cs.writeError(env.ID, msg); err != nil && r.cfg.Logger != nil {
		r.cfg.Logger.Warn("router: error relay failed", "err", err.Error())
	}
}

// forward sends env to one backend over its pooled connection, dialing it
// lazily on first use. The caller's ctx carries both the request deadline
// and Cancel-frame cancellation.
func (r *Router) forward(ctx context.Context, b *backend, env *wire.Envelope) (*wire.Envelope, error) {
	conn, err := r.backendConn(b)
	if err != nil {
		return nil, err
	}
	return conn.Forward(ctx, env)
}

func (r *Router) backendConn(b *backend) (*client.Conn, error) {
	// Dial under the connState-independent router lock: reuse the pooled
	// conn across all client connections.
	r.dialMu.Lock()
	defer r.dialMu.Unlock()
	if b.conn != nil {
		return b.conn, nil
	}
	c, err := client.Dial(b.addr, nil, client.WithObservability(r.reg))
	if err != nil {
		return nil, err
	}
	b.conn = c
	return c, nil
}
