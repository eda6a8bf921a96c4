package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/replica"
	"mie/internal/router"
	"mie/internal/server"
	"mie/internal/wal"
)

// clusterFrameInterval is the per-node request pacing during the read-
// scaling phase: every node relay delivers at most one request frame per
// interval, modelling a node's finite capacity (~500 qps) so adding
// replicas measurably adds aggregate throughput inside one process.
const clusterFrameInterval = 2 * time.Millisecond

// clusterNode is one member of the in-process cluster: its own durable
// service and wire server, fronted by a fault-injecting relay that plays
// the role of the node's network interface.
type clusterNode struct {
	name string
	dir  string
	svc  *core.Service
	srv  *server.Server
	// relay is the node's stable client-facing address; for the leader it
	// is also the replication/forwarding VIP, which is what lets a
	// restarted leader come back under the same address.
	relay *chaosRelay
	// link, on followers, is the replication path to the leader VIP —
	// partitionable per follower.
	link *chaosRelay
	fol  *replica.Follower
	fwd  *replica.Forwarder
}

// Cluster is an in-process replicated MIE deployment: node 0 is the leader
// (service + replication hub), the rest are followers replicating from it
// and forwarding mutations to it, and a consistent-hash router fronts them
// all. Every network path runs through a chaosRelay, so latency, capacity,
// partitions and leader crashes are injected deterministically at frame
// boundaries.
type Cluster struct {
	baseDir string
	sync    wal.SyncPolicy
	reg     *obs.Registry
	nodes   []*clusterNode
	hub     *replica.Hub
	rt      *router.Router
}

// StartCluster boots an n-node cluster under baseDir (one subdirectory per
// node) with the given WAL sync policy on every node.
func StartCluster(baseDir string, n int, sync wal.SyncPolicy) (*Cluster, error) {
	if n < 1 {
		return nil, errors.New("experiments: cluster needs at least one node")
	}
	c := &Cluster{baseDir: baseDir, sync: sync, reg: obs.NewRegistry()}
	fail := func(err error) (*Cluster, error) {
		_ = c.Close()
		return nil, err
	}

	// Leader.
	leaderDir := filepath.Join(baseDir, "node-0")
	svc, _, err := core.OpenService(core.ServiceOptions{Dir: leaderDir, Sync: sync})
	if err != nil {
		return fail(err)
	}
	c.hub = replica.NewHub(svc, c.reg)
	srv, err := server.New("127.0.0.1:0", svc, nil,
		server.WithReplication(c.hub),
		server.WithNodeStatus(func() server.NodeStatus {
			return server.NodeStatus{Role: "leader", CaughtUp: true}
		}))
	if err != nil {
		_ = svc.Close()
		return fail(err)
	}
	relay0, err := newChaosRelay(srv.Addr())
	if err != nil {
		_ = srv.Close()
		_ = svc.Close()
		return fail(err)
	}
	c.nodes = append(c.nodes, &clusterNode{name: "node-0", dir: leaderDir, svc: svc, srv: srv, relay: relay0})

	// Followers.
	for i := 1; i < n; i++ {
		node, err := c.startFollower(i)
		if err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, node)
	}

	// Router over the node relays.
	rcfg := router.Config{Leader: "node-0", Registry: c.reg}
	for _, node := range c.nodes {
		rcfg.Nodes = append(rcfg.Nodes, router.Node{Name: node.name, Addr: node.relay.Addr()})
	}
	rt, err := router.Start(rcfg)
	if err != nil {
		return fail(err)
	}
	c.rt = rt
	return c, nil
}

func (c *Cluster) startFollower(i int) (*clusterNode, error) {
	name := fmt.Sprintf("node-%d", i)
	dir := filepath.Join(c.baseDir, name)
	svc, _, err := core.OpenService(core.ServiceOptions{Dir: dir, Sync: c.sync})
	if err != nil {
		return nil, err
	}
	link, err := newChaosRelay(c.nodes[0].relay.Addr())
	if err != nil {
		_ = svc.Close()
		return nil, err
	}
	fol, err := replica.StartFollower(svc, link.Addr(), c.reg, nil)
	if err != nil {
		link.Close()
		_ = svc.Close()
		return nil, err
	}
	fwd := replica.NewForwarder(c.nodes[0].relay.Addr())
	srv, err := server.New("127.0.0.1:0", svc, nil,
		server.WithForwarder(fwd),
		server.WithNodeStatus(func() server.NodeStatus {
			st := fol.Status()
			return server.NodeStatus{Role: "follower", CaughtUp: st.CaughtUp, LagNanos: st.LagNanos}
		}))
	if err != nil {
		fol.Close()
		_ = fwd.Close()
		link.Close()
		_ = svc.Close()
		return nil, err
	}
	relay, err := newChaosRelay(srv.Addr())
	if err != nil {
		_ = srv.Close()
		fol.Close()
		_ = fwd.Close()
		link.Close()
		_ = svc.Close()
		return nil, err
	}
	return &clusterNode{name: name, dir: dir, svc: svc, srv: srv, relay: relay, link: link, fol: fol, fwd: fwd}, nil
}

// RouterAddr is the client-facing address of the routing tier.
func (c *Cluster) RouterAddr() string { return c.rt.Addr() }

// NodeAddr is node i's direct (relay) address.
func (c *Cluster) NodeAddr(i int) string { return c.nodes[i].relay.Addr() }

// NodeService exposes node i's service for white-box assertions.
func (c *Cluster) NodeService(i int) *core.Service { return c.nodes[i].svc }

// Follower exposes node i's replication client (nil for the leader).
func (c *Cluster) Follower(i int) *replica.Follower { return c.nodes[i].fol }

// Ring exposes the router's placement ring.
func (c *Cluster) Ring() *router.Ring { return c.rt.Ring() }

// SetFrameInterval paces every node's client-facing request path (0
// disables pacing).
func (c *Cluster) SetFrameInterval(d time.Duration) {
	for _, node := range c.nodes {
		node.relay.SetFrameInterval(d)
	}
}

// KillLeader stops the leader's server and service without any graceful
// handoff. Followers and the router see connection failures; acknowledged
// writes are whatever the leader's WAL policy made durable.
func (c *Cluster) KillLeader() {
	leader := c.nodes[0]
	_ = leader.srv.Close()
	_ = leader.svc.Close()
	leader.srv, leader.svc, c.hub = nil, nil, nil
}

// RestartLeader reopens the leader from its data directory — recovering
// state from snapshots plus WAL replay — and repoints the stable leader
// VIP at the new incarnation. Followers resubscribe through their standing
// reconnect loops; the fresh hub's generations force them through snapshot
// re-sync, which is exactly the protocol's crash-recovery path.
func (c *Cluster) RestartLeader() error {
	leader := c.nodes[0]
	svc, _, err := core.OpenService(core.ServiceOptions{Dir: leader.dir, Sync: c.sync})
	if err != nil {
		return err
	}
	hub := replica.NewHub(svc, c.reg)
	srv, err := server.New("127.0.0.1:0", svc, nil,
		server.WithReplication(hub),
		server.WithNodeStatus(func() server.NodeStatus {
			return server.NodeStatus{Role: "leader", CaughtUp: true}
		}))
	if err != nil {
		_ = svc.Close()
		return err
	}
	leader.svc, leader.srv, c.hub = svc, srv, hub
	leader.relay.SetTarget(srv.Addr())
	return nil
}

// WaitCaughtUp blocks until every follower's cursor matches the leader's
// head for the catalog and each given repository, or the timeout expires.
func (c *Cluster) WaitCaughtUp(repoIDs []string, timeout time.Duration) error {
	streams := append([]string{replica.CatalogStream}, repoIDs...)
	deadline := time.Now().Add(timeout)
	for {
		behind := ""
		for _, node := range c.nodes[1:] {
			for _, id := range streams {
				if node.fol.Cursor(id) != c.hub.Head(id) {
					behind = fmt.Sprintf("%s on %q: follower %+v, leader %+v", node.name, id, node.fol.Cursor(id), c.hub.Head(id))
					break
				}
			}
			if behind != "" {
				break
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("experiments: cluster not caught up after %v: %s", timeout, behind)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close tears the cluster down: router, then every node.
func (c *Cluster) Close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if c.rt != nil {
		keep(c.rt.Close())
	}
	for _, node := range c.nodes {
		if node.relay != nil {
			node.relay.Close()
		}
		if node.fol != nil {
			node.fol.Close()
		}
		if node.fwd != nil {
			keep(node.fwd.Close())
		}
		if node.link != nil {
			node.link.Close()
		}
		if node.srv != nil {
			keep(node.srv.Close())
		}
		if node.svc != nil {
			keep(node.svc.Close())
		}
	}
	return first
}

// ClusterScalePoint is the read-throughput measurement at one cluster size.
type ClusterScalePoint struct {
	Nodes         int     `json:"nodes"`
	Repos         int     `json:"repos"`
	Workers       int     `json:"workers"`
	Searches      int     `json:"searches"`
	ThroughputQPS float64 `json:"throughput_qps"`
	// ScaleVsOne is this point's throughput relative to the 1-node point.
	ScaleVsOne float64 `json:"scale_vs_one"`
}

// ClusterReport is the BENCH_cluster.json document: read scale-out,
// replication lag, and zero-loss failover on the in-process cluster.
type ClusterReport struct {
	Seed           int64               `json:"seed"`
	Repos          int                 `json:"repos"`
	ObjectsPerRepo int                 `json:"objects_per_repo"`
	Scale          []ClusterScalePoint `json:"scale"`
	ScaleAt2       float64             `json:"scale_at_2"`
	ScaleAt4       float64             `json:"scale_at_4"`

	// Replication lag over a write burst, measured at the follower from
	// record timestamp to local apply.
	LagWrites int     `json:"lag_writes"`
	LagP50Ms  float64 `json:"lag_p50_ms"`
	LagP99Ms  float64 `json:"lag_p99_ms"`

	// Failover: sequential acknowledged writes through the router with a
	// leader kill and restart in the middle. Every acknowledged write must
	// be readable on the restarted leader and on a caught-up follower.
	AckedWrites    int  `json:"acked_writes"`
	DeniedWrites   int  `json:"denied_writes"`
	LeaderKills    int  `json:"leader_kills"`
	LostAcksLeader int  `json:"lost_acks_leader"`
	LostAcks       int  `json:"lost_acks"`
	SearchParity   bool `json:"search_parity"`
}

// clusterRepoIDs picks repo names whose ring placement spreads evenly
// across all nodes, so every cluster size has every node serving reads
// (random names can leave a node empty, which would understate scaling).
func clusterRepoIDs(ring *router.Ring, nodes, repos int) []string {
	perNode := repos / nodes
	extra := repos % nodes
	count := make(map[string]int, nodes)
	want := func(node string) int {
		w := perNode
		if extra > 0 && node == ring.Nodes()[0] {
			w += extra
		}
		return w
	}
	var out []string
	for i := 0; len(out) < repos && i < repos*1000; i++ {
		id := fmt.Sprintf("shard-repo-%04d", i)
		home := ring.Prefer(id)[0]
		if count[home] < want(home) {
			count[home]++
			out = append(out, id)
		}
	}
	return out
}

// clusterSeed populates repos through the router (mutations land on the
// leader) with small text objects and returns per-repo queries.
func clusterSeed(cfg Config, conn *client.Conn, repoIDs []string, objects int) (map[string][]string, []*core.Query, error) {
	ctx := context.Background()
	cc, err := tenancyClient(cfg)
	if err != nil {
		return nil, nil, err
	}
	acked := make(map[string][]string, len(repoIDs))
	var queries []*core.Query
	ropts := cfg.repoOptions()
	for r, repoID := range repoIDs {
		if err := conn.CreateRepository(ctx, repoID, ropts); err != nil {
			return nil, nil, fmt.Errorf("create %s: %w", repoID, err)
		}
		for j := 0; j < objects; j++ {
			obj := &core.Object{
				ID:    fmt.Sprintf("obj-%d", j),
				Owner: fmt.Sprintf("tenant-%d", r%8),
				Text:  fmt.Sprintf("shard %d document %d about topic-%d and topic-%d", r, j, j%7, (j+3)%7),
			}
			up, err := cc.PrepareUpdate(obj, dataKey())
			if err != nil {
				return nil, nil, err
			}
			if err := conn.Update(ctx, repoID, up); err != nil {
				return nil, nil, fmt.Errorf("seed %s/%s: %w", repoID, obj.ID, err)
			}
			acked[repoID] = append(acked[repoID], obj.ID)
			if j == 0 {
				q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: obj.Text}, cfg.K)
				if err != nil {
					return nil, nil, err
				}
				queries = append(queries, q)
			}
		}
	}
	return acked, queries, nil
}

// clusterScalePoint measures aggregate search throughput through the
// router at one cluster size, with every node's request path paced to the
// same per-node capacity.
func clusterScalePoint(cfg Config, dir string, nodes int, window time.Duration) (ClusterScalePoint, error) {
	pt := ClusterScalePoint{Nodes: nodes}
	cl, err := StartCluster(dir, nodes, wal.SyncNever)
	if err != nil {
		return pt, err
	}
	defer func() { _ = cl.Close() }()

	repoIDs := clusterRepoIDs(cl.Ring(), nodes, cfg.ClusterRepos)
	pt.Repos = len(repoIDs)
	conn, err := client.Dial(cl.RouterAddr(), nil)
	if err != nil {
		return pt, err
	}
	defer func() { _ = conn.Close() }()
	_, queries, err := clusterSeed(cfg, conn, repoIDs, cfg.ClusterObjects)
	if err != nil {
		return pt, err
	}
	if err := cl.WaitCaughtUp(repoIDs, 30*time.Second); err != nil {
		return pt, err
	}

	cl.SetFrameInterval(clusterFrameInterval)
	workers := 8 * nodes
	pt.Workers = workers
	counts := make([]int, workers)
	errs := make([]error, workers)
	conns := make([]*client.Conn, workers)
	for w := range conns {
		if conns[w], err = client.Dial(cl.RouterAddr(), nil); err != nil {
			return pt, err
		}
		defer func(c *client.Conn) { _ = c.Close() }(conns[w])
	}
	ctx := context.Background()
	stop := time.Now().Add(window)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- w }()
			for i := 0; time.Now().Before(stop); i++ {
				r := (w + i) % len(repoIDs)
				if _, err := conns[w].Search(ctx, repoIDs[r], queries[r]); err != nil {
					errs[w] = err
					return
				}
				counts[w]++
			}
		}(w)
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		<-done
	}
	wall := time.Since(start) // ≈ window; measured for honesty
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return pt, fmt.Errorf("scale@%d worker %d: %w", nodes, w, errs[w])
		}
		pt.Searches += counts[w]
	}
	pt.ThroughputQPS = float64(pt.Searches) / wall.Seconds()
	return pt, nil
}

// ClusterExperiment drives the full cluster benchmark: read scaling at
// each configured size, replication lag under a write burst, and the
// failover phase (leader kill + restart under a sequential writer) with
// its zero-acknowledged-loss and leader/follower search-parity checks.
func ClusterExperiment(cfg Config, dir string) (*ClusterReport, error) {
	if len(cfg.ClusterNodes) == 0 || cfg.ClusterRepos <= 0 {
		return nil, errors.New("experiments: ClusterNodes and ClusterRepos must be set")
	}
	report := &ClusterReport{
		Seed:           cfg.Seed,
		Repos:          cfg.ClusterRepos,
		ObjectsPerRepo: cfg.ClusterObjects,
	}
	window := time.Duration(cfg.ClusterReadMillis) * time.Millisecond

	// Phase 1: read scaling.
	for _, n := range cfg.ClusterNodes {
		ptDir := filepath.Join(dir, fmt.Sprintf("scale-%d", n))
		pt, err := clusterScalePoint(cfg, ptDir, n, window)
		if err != nil {
			return nil, fmt.Errorf("scale@%d: %w", n, err)
		}
		_ = os.RemoveAll(ptDir)
		if base := report.Scale; len(base) > 0 && base[0].ThroughputQPS > 0 {
			pt.ScaleVsOne = pt.ThroughputQPS / base[0].ThroughputQPS
		} else if len(report.Scale) == 0 {
			pt.ScaleVsOne = 1
		}
		report.Scale = append(report.Scale, pt)
		switch pt.Nodes {
		case 2:
			report.ScaleAt2 = pt.ScaleVsOne
		case 4:
			report.ScaleAt4 = pt.ScaleVsOne
		}
	}

	// Phase 2 + 3: replication lag, then failover, on one 2-node cluster
	// with full durability (the failover guarantee is a WAL guarantee).
	if err := clusterFailoverPhase(cfg, filepath.Join(dir, "failover"), report); err != nil {
		return nil, err
	}
	return report, nil
}

// clusterFailoverPhase runs the lag burst and the leader-kill ledger check
// on a 2-node SyncAlways cluster.
func clusterFailoverPhase(cfg Config, dir string, report *ClusterReport) (err error) {
	ctx := context.Background()
	cl, err := StartCluster(dir, 2, wal.SyncAlways)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cl.Close(); err == nil {
			err = cerr
		}
	}()
	cc, err := tenancyClient(cfg)
	if err != nil {
		return err
	}
	conn, err := client.Dial(cl.RouterAddr(), nil)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()

	const repoID = "failover-repo"
	if err := conn.CreateRepository(ctx, repoID, cfg.repoOptions()); err != nil {
		return err
	}

	// Lag burst: sequential writes while the follower replicates live.
	writes := cfg.ClusterWrites
	for i := 0; i < writes; i++ {
		up, err := cc.PrepareUpdate(&core.Object{
			ID:    fmt.Sprintf("burst-%04d", i),
			Owner: "tenant-0",
			Text:  fmt.Sprintf("burst document %d", i),
		}, dataKey())
		if err != nil {
			return err
		}
		if err := conn.Update(ctx, repoID, up); err != nil {
			return fmt.Errorf("burst write %d: %w", i, err)
		}
	}
	if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
		return err
	}
	fol := cl.Follower(1)
	report.LagWrites = writes
	report.LagP50Ms = ms(fol.LagQuantile(0.50))
	report.LagP99Ms = ms(fol.LagQuantile(0.99))

	// Failover ledger: every write retries until acknowledged; the leader
	// dies after the first third and comes back under the same VIP. An
	// acknowledged write that later cannot be read back is a lost ack.
	var acked []string
	killAt := writes / 3
	deadline := time.Now().Add(2 * time.Minute)
	for i := 0; i < writes; i++ {
		objID := fmt.Sprintf("failover-%04d", i)
		up, err := cc.PrepareUpdate(&core.Object{
			ID:    objID,
			Owner: "tenant-0",
			Text:  fmt.Sprintf("failover document %d survives the crash", i),
		}, dataKey())
		if err != nil {
			return err
		}
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("failover writer stalled at %s after %d denials", objID, report.DeniedWrites)
			}
			if err := conn.Update(ctx, repoID, up); err == nil {
				acked = append(acked, objID)
				break
			}
			report.DeniedWrites++
			time.Sleep(25 * time.Millisecond)
		}
		if i == killAt {
			cl.KillLeader()
			report.LeaderKills++
			if err := cl.RestartLeader(); err != nil {
				return fmt.Errorf("restart leader: %w", err)
			}
		}
	}
	report.AckedWrites = len(acked)
	if err := cl.WaitCaughtUp([]string{repoID}, 60*time.Second); err != nil {
		return err
	}

	// Read every acknowledged id back from both nodes directly.
	leaderConn, err := client.Dial(cl.NodeAddr(0), nil)
	if err != nil {
		return err
	}
	defer func() { _ = leaderConn.Close() }()
	folConn, err := client.Dial(cl.NodeAddr(1), nil)
	if err != nil {
		return err
	}
	defer func() { _ = folConn.Close() }()
	for _, objID := range acked {
		if _, _, err := leaderConn.Get(ctx, repoID, objID); err != nil {
			report.LostAcksLeader++
			report.LostAcks++
			continue
		}
		if _, _, err := folConn.Get(ctx, repoID, objID); err != nil {
			report.LostAcks++
		}
	}

	// Search parity: the same query must return the same ranked ids from
	// the leader and the caught-up follower.
	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "failover document survives the crash"}, cfg.K)
	if err != nil {
		return err
	}
	leaderHits, err := leaderConn.Search(ctx, repoID, q)
	if err != nil {
		return fmt.Errorf("parity search on leader: %w", err)
	}
	folHits, err := folConn.Search(ctx, repoID, q)
	if err != nil {
		return fmt.Errorf("parity search on follower: %w", err)
	}
	report.SearchParity = reflect.DeepEqual(leaderHits, folHits)
	return nil
}

// WriteClusterReport renders the report for stdout.
func WriteClusterReport(w io.Writer, r *ClusterReport) {
	fmt.Fprintf(w, "Cluster: %d repositories x %d objects, WAL-shipping replication behind a consistent-hash router (seed %d)\n",
		r.Repos, r.ObjectsPerRepo, r.Seed)
	for _, pt := range r.Scale {
		fmt.Fprintf(w, "  read scale @%d node(s): %d searches by %d workers -> %.0f qps (%.2fx vs 1 node)\n",
			pt.Nodes, pt.Searches, pt.Workers, pt.ThroughputQPS, pt.ScaleVsOne)
	}
	fmt.Fprintf(w, "  replication lag over %d writes: p50 %.3f ms, p99 %.3f ms\n",
		r.LagWrites, r.LagP50Ms, r.LagP99Ms)
	fmt.Fprintf(w, "  failover: %d acked writes across %d leader kill(s), %d denied during downtime, %d lost (leader %d)\n",
		r.AckedWrites, r.LeaderKills, r.DeniedWrites, r.LostAcks, r.LostAcksLeader)
	parity := "ok"
	if !r.SearchParity {
		parity = "MISMATCH"
	}
	fmt.Fprintf(w, "  leader/follower search parity: %s\n", parity)
}
