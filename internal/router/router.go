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
	// HealthInterval is the per-node probe cadence (default 500ms).
	HealthInterval time.Duration
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Registry receives router metrics (default obs.Default()).
	Registry *obs.Registry
	// Logger, when set, receives routing warnings.
	Logger *slog.Logger
}

// backend is the router's view of one node: a pooled connection, dialed on
// first use, plus the last probed health state.
type backend struct {
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
	// targets[i] lists the backends of the ring's preference order from
	// point i; leaderOnly is the leader alone. Both are built at Start and
	// shared by every relay, which only reads them.
	targets    [][]*backend
	leaderOnly []*backend

	routedC   *obs.Counter
	failoverC *obs.Counter
	errorsC   *obs.Counter

	// ctx ends at Close; every relay, and so every backend dial, derives
	// from it.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
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
		conn := client.NewConn(n.Addr, nil, client.WithObservability(reg))
		backends[n.Name] = &backend{addr: n.Addr, conn: conn, isLeader: n.Name == cfg.Leader}
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
		ring:      NewRing(names, 0),
		ln:        ln,
		leader:    leader,
		backends:  backends,
		routedC:   reg.Counter("router_requests_total"),
		failoverC: reg.Counter("router_failovers_total"),
		errorsC:   reg.Counter("router_errors_total"),
	}
	r.leaderOnly = []*backend{leader}
	r.targets = make([][]*backend, len(r.ring.prefer))
	for i, prefer := range r.ring.prefer {
		r.targets[i] = make([]*backend, len(prefer))
		for j, name := range prefer {
			r.targets[i][j] = backends[name]
		}
	}
	r.ctx, r.stop = context.WithCancel(context.Background())
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

// Close stops accepting, ends every relay and backend dial, tears down the
// backend connections — a relay blocked writing to a member ends with
// them — and waits for the background loops.
func (r *Router) Close() error {
	r.stop()
	_ = r.ln.Close() // a second Close reports the listener already closed
	for _, b := range r.backends {
		_ = b.conn.Close()
	}
	r.wg.Wait()
	return nil
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
// may serve reads; at the shortest step while it answers but is a follower
// still catching up, so the router notices within tens of milliseconds that
// it has; and with capped backoff while it is down, so recovery is noticed
// fast without hammering a dead address.
func (r *Router) healthLoop(b *backend) {
	defer r.wg.Done()
	backoff := probeBackoffMin
	for {
		wait := r.cfg.HealthInterval
		switch {
		case !b.healthy.Load():
			wait = backoff
			if backoff *= 2; backoff > probeBackoffMax {
				backoff = probeBackoffMax
			}
		case !b.eligible():
			wait, backoff = probeBackoffMin, probeBackoffMin
		default:
			backoff = probeBackoffMin
		}
		select {
		case <-time.After(wait):
		case <-r.ctx.Done():
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
			if r.ctx.Err() != nil {
				return
			}
			select {
			case <-time.After(backoff):
			case <-r.ctx.Done():
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

// connState is one client connection's relay state: the framed connection
// (written by concurrent relays) and the in-flight table for Cancel.
type connState struct {
	fc       *wire.FrameConn
	inflight wire.Inflight
}

func (cs *connState) write(env *wire.Envelope) error {
	_, err := cs.fc.WriteFrame(context.Background(), env)
	return err
}

func (cs *connState) writeError(id uint64, msg string) error {
	env, err := wire.NewEnvelope(wire.KindError, "", id, 0, wire.Ack{Status: wire.Status{Err: msg}})
	if err != nil {
		return err
	}
	return cs.write(env)
}

func (r *Router) serveConn(conn net.Conn) {
	defer r.wg.Done()
	defer func() { _ = conn.Close() }()
	// Tear the socket down on Close so the read loop unblocks.
	defer context.AfterFunc(r.ctx, func() { _ = conn.Close() })()
	cs := &connState{fc: wire.NewFrameConn(conn)}
	var relays sync.WaitGroup
	defer relays.Wait()
	for {
		env, _, err := cs.fc.ReadFrame()
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
				cs.inflight.Cancel(req.ID)
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
// the head of the body), otherwise just the leader. The slice is shared.
func (r *Router) readTargets(env *wire.Envelope) []*backend {
	return r.targetsFor(env.RepoID())
}

// targetsFor returns the read candidates of a repository id ("" for none).
func (r *Router) targetsFor(repoID string) []*backend {
	if repoID == "" {
		return r.leaderOnly
	}
	return r.targets[r.ring.point(repoID)]
}

// relay routes one request to its node and writes the node's response back
// under the origin ID: the leader for the kinds wire's table marks
// leader-only, the ring for the rest. Reads fail over along the ring: a
// transport error marks the backend unhealthy and the next eligible
// candidate is tried.
func (r *Router) relay(cs *connState, env *wire.Envelope) {
	r.routedC.Inc()
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	if env.TimeoutNanos > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(env.TimeoutNanos))
		defer cancel()
	}
	cs.inflight.Track(env.ID, cancel)
	defer cs.inflight.Untrack(env.ID)

	candidates := r.leaderOnly
	if !wire.LeaderOnly(env.Kind) {
		candidates = r.readTargets(env)
	}
	r.relayTo(ctx, cs, env, candidates)
}

// relayTo tries candidates in order, preferring eligible ones, and relays
// the first response. Ineligible backends are still tried as a last resort:
// a stale health bit must not turn a servable request into an error. ctx
// carries the request deadline, Cancel-frame cancellation and Close, and
// bounds a backend's dial too (client.DialHello also bounds one without a
// deadline), so a member that accepts and never answers holds only the
// relays addressed to it.
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
		resp, err := b.conn.Forward(ctx, env)
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
