package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/leakcheck"
	"mie/internal/wal"
	"mie/internal/wal/walfault"
)

// clusterTestConfig keeps cluster tests fast: tiny corpus, quick-scale
// engine parameters.
func clusterTestConfig() Config {
	cfg := Quick()
	cfg.ClusterRepos = 2
	cfg.ClusterObjects = 3
	return cfg
}

// startTestCluster boots an n-node cluster rooted in the test's temp dir.
func startTestCluster(t *testing.T, n int, sync wal.SyncPolicy) *Cluster {
	t.Helper()
	cl, err := StartCluster(t.TempDir(), n, sync)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// ledger drives retry-until-acked writes through a connection and remembers
// exactly which object ids were acknowledged — the in-memory oracle the
// replayed cluster state must equal.
type ledger struct {
	cfg    Config
	cc     *core.Client
	conn   *client.Conn
	repoID string
	acked  []string
	denied int
}

func newLedger(t *testing.T, cfg Config, conn *client.Conn, repoID string) *ledger {
	t.Helper()
	cc, err := tenancyClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &ledger{cfg: cfg, cc: cc, conn: conn, repoID: repoID}
}

// write retries objID until the cluster acknowledges it.
func (l *ledger) write(t *testing.T, objID, text string) {
	t.Helper()
	up, err := l.cc.PrepareUpdate(&core.Object{ID: objID, Owner: "tenant-0", Text: text}, dataKey())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if err := l.conn.Update(context.Background(), l.repoID, up); err == nil {
			l.acked = append(l.acked, objID)
			return
		}
		l.denied++
		if time.Now().After(deadline) {
			t.Fatalf("write %s never acknowledged after %d denials", objID, l.denied)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verifyLedger checks that node i's state equals the oracle: every
// acknowledged id readable, a never-written id absent.
func verifyLedger(t *testing.T, cl *Cluster, node int, l *ledger, label string) {
	t.Helper()
	conn, err := client.Dial(cl.NodeAddr(node), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	ctx := context.Background()
	for _, objID := range l.acked {
		if _, _, err := conn.Get(ctx, l.repoID, objID); err != nil {
			t.Errorf("%s: node %d lost acknowledged write %s: %v", label, node, objID, err)
		}
	}
	if _, _, err := conn.Get(ctx, l.repoID, "never-written"); err == nil {
		t.Errorf("%s: node %d resurrected an unacknowledged object", label, node)
	}
}

// searchParity asserts both nodes return identical ranked hits.
func searchParity(t *testing.T, cl *Cluster, l *ledger, text, label string) {
	t.Helper()
	q, err := l.cc.PrepareQuery(&core.Object{ID: "q", Text: text}, l.cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var hits [][]core.SearchHit
	for node := 0; node < cl.Nodes(); node++ {
		conn, err := client.Dial(cl.NodeAddr(node), nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := conn.Search(ctx, l.repoID, q)
		_ = conn.Close()
		if err != nil {
			t.Fatalf("%s: search on node %d: %v", label, node, err)
		}
		hits = append(hits, h)
	}
	for node := 1; node < len(hits); node++ {
		if !reflect.DeepEqual(hits[0], hits[node]) {
			t.Errorf("%s: search parity broken between node 0 and node %d: %v vs %v", label, node, hits[0], hits[node])
		}
	}
}

// TestClusterKillMatrixEveryBoundary is the headline fault matrix: a leader
// kill + restart at every record boundary of a write sequence. At each kill
// point the replayed cluster — restarted leader plus caught-up follower —
// must equal the in-memory oracle of acknowledged writes exactly: nothing
// acknowledged lost, nothing unacknowledged resurrected, identical search
// rankings on both nodes.
func TestClusterKillMatrixEveryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster kill matrix boots one cluster per boundary")
	}
	leakcheck.Check(t)
	cfg := clusterTestConfig()
	const writes = 5
	for kill := 0; kill <= writes; kill++ {
		t.Run(fmt.Sprintf("kill@%d", kill), func(t *testing.T) {
			cl := startTestCluster(t, 2, wal.SyncAlways)
			conn, err := client.Dial(cl.RouterAddr(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			const repoID = "kill-matrix"
			if err := conn.CreateRepository(context.Background(), repoID, wireOpts(cfg)); err != nil {
				t.Fatal(err)
			}
			l := newLedger(t, cfg, conn, repoID)
			for i := 0; i < writes; i++ {
				if i == kill {
					cl.KillLeader()
					if err := cl.RestartLeader(); err != nil {
						t.Fatal(err)
					}
				}
				l.write(t, fmt.Sprintf("obj-%02d", i), fmt.Sprintf("kill matrix document %d", i))
			}
			if kill == writes {
				cl.KillLeader()
				if err := cl.RestartLeader(); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("kill@%d", kill)
			verifyLedger(t, cl, 0, l, label)
			verifyLedger(t, cl, 1, l, label)
			searchParity(t, cl, l, "kill matrix document", label)
		})
	}
}

// TestClusterTornLeaderWALTail crashes the leader's WAL mid-record with a
// scripted walfault disk: the torn write's ack is withheld, and after the
// leader restarts from its truncated log, neither node may hold the torn
// record — the oracle contract under a real torn write, not just a clean
// kill.
func TestClusterTornLeaderWALTail(t *testing.T) {
	if testing.Short() {
		t.Skip("torn-tail test boots two clusters")
	}
	leakcheck.Check(t)
	cfg := clusterTestConfig()
	const repoID = "torn-tail"
	const writes = 4
	walName := repoID + ".wal" // core's walFileName for a plain id

	// Clean run: learn the durable WAL size after each write, so the torn
	// run can crash strictly inside the final record.
	disk := walfault.NewDisk()
	core.SetWALFileOpenerForTest(func(p string) (wal.File, error) { return disk.Open(p) })
	defer core.SetWALFileOpenerForTest(nil)

	var sizes []int64
	func() {
		cl := startTestCluster(t, 2, wal.SyncAlways)
		conn, err := client.Dial(cl.RouterAddr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		if err := conn.CreateRepository(context.Background(), repoID, wireOpts(cfg)); err != nil {
			t.Fatal(err)
		}
		l := newLedger(t, cfg, conn, repoID)
		walPath := filepath.Join(cl.nodes[0].dir, walName)
		for i := 0; i < writes; i++ {
			l.write(t, fmt.Sprintf("obj-%02d", i), fmt.Sprintf("torn tail document %d", i))
			f := disk.File(walPath)
			if f == nil {
				t.Fatalf("leader WAL %s not on the fault disk", walPath)
			}
			sizes = append(sizes, int64(len(f.Durable())))
		}
	}()
	if len(sizes) < writes || sizes[writes-1] <= sizes[writes-2] {
		t.Fatalf("clean run produced no growing WAL: %v", sizes)
	}

	// Torn run: crash one byte short of the final record's end.
	disk2 := walfault.NewDisk()
	core.SetWALFileOpenerForTest(func(p string) (wal.File, error) { return disk2.Open(p) })
	cl := startTestCluster(t, 2, wal.SyncAlways)
	disk2.Script(filepath.Join(cl.nodes[0].dir, walName), walfault.Script{CrashAtByte: sizes[writes-1] - 1})
	conn, err := client.Dial(cl.RouterAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.CreateRepository(context.Background(), repoID, wireOpts(cfg)); err != nil {
		t.Fatal(err)
	}
	l := newLedger(t, cfg, conn, repoID)
	for i := 0; i < writes-1; i++ {
		l.write(t, fmt.Sprintf("obj-%02d", i), fmt.Sprintf("torn tail document %d", i))
	}
	// The final write tears mid-record: the ack must be withheld.
	lastID := fmt.Sprintf("obj-%02d", writes-1)
	up, err := l.cc.PrepareUpdate(&core.Object{ID: lastID, Owner: "tenant-0", Text: fmt.Sprintf("torn tail document %d", writes-1)}, dataKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Update(context.Background(), repoID, up); err == nil {
		t.Fatal("write acknowledged although its WAL record tore mid-byte")
	}

	// Reboot the leader from the truncated log; the follower re-syncs.
	cl.KillLeader()
	if err := cl.RestartLeader(); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	verifyLedger(t, cl, 0, l, "torn-tail")
	verifyLedger(t, cl, 1, l, "torn-tail")
	for node := 0; node < 2; node++ {
		c2, err := client.Dial(cl.NodeAddr(node), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = c2.Get(context.Background(), repoID, lastID)
		_ = c2.Close()
		if err == nil {
			t.Errorf("node %d resurrected the torn, unacknowledged record %s", node, lastID)
		}
	}
	searchParity(t, cl, l, "torn tail document", "torn-tail")
}

// TestClusterPartitionHealResume: a partitioned follower keeps serving its
// stale state, then heals, resumes from its cursor, and converges on
// everything written during the split.
func TestClusterPartitionHealResume(t *testing.T) {
	if testing.Short() {
		t.Skip("partition test boots a cluster")
	}
	leakcheck.Check(t)
	cfg := clusterTestConfig()
	cl := startTestCluster(t, 2, wal.SyncNever)
	conn, err := client.Dial(cl.RouterAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	const repoID = "split-brain"
	if err := conn.CreateRepository(context.Background(), repoID, wireOpts(cfg)); err != nil {
		t.Fatal(err)
	}
	l := newLedger(t, cfg, conn, repoID)
	for i := 0; i < 3; i++ {
		l.write(t, fmt.Sprintf("pre-%02d", i), fmt.Sprintf("pre-partition document %d", i))
	}
	if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	cl.PartitionFollower(1, true)
	for i := 0; i < 3; i++ {
		l.write(t, fmt.Sprintf("mid-%02d", i), fmt.Sprintf("mid-partition document %d", i))
	}
	// The partitioned follower still serves its pre-partition state.
	folConn, err := client.Dial(cl.NodeAddr(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := folConn.Get(context.Background(), repoID, "pre-00"); err != nil {
		t.Fatalf("partitioned follower dropped pre-partition state: %v", err)
	}
	if _, _, err := folConn.Get(context.Background(), repoID, "mid-00"); err == nil {
		t.Fatal("partitioned follower somehow received a mid-partition write")
	}
	_ = folConn.Close()
	applied := cl.Follower(1).Cursor(repoID)

	cl.PartitionFollower(1, false)
	if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	healed := cl.Follower(1).Cursor(repoID)
	if healed.Gen != applied.Gen || healed.Seq <= applied.Seq {
		t.Fatalf("heal did not resume the same generation: %+v -> %+v", applied, healed)
	}
	verifyLedger(t, cl, 1, l, "healed")
	searchParity(t, cl, l, "partition document", "healed")
}

// TestClusterSearchDuringReplayStress hammers searches on the follower
// while a writer streams mutations through the router — the -race asset for
// the apply-while-serving path. Stale reads are fine; errors are not.
func TestClusterSearchDuringReplayStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test boots a cluster")
	}
	leakcheck.Check(t)
	cfg := clusterTestConfig()
	cl := startTestCluster(t, 2, wal.SyncNever)
	conn, err := client.Dial(cl.RouterAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	const repoID = "replay-stress"
	if err := conn.CreateRepository(context.Background(), repoID, wireOpts(cfg)); err != nil {
		t.Fatal(err)
	}
	l := newLedger(t, cfg, conn, repoID)
	l.write(t, "base", "stress base document")
	if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	q, err := l.cc.PrepareQuery(&core.Object{ID: "q", Text: "stress document"}, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	stop := make(chan struct{})
	errC := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fc, err := client.Dial(cl.NodeAddr(1), nil)
			if err != nil {
				errC <- err
				return
			}
			defer func() { _ = fc.Close() }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := fc.Search(context.Background(), repoID, q); err != nil {
					errC <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		l.write(t, fmt.Sprintf("obj-%03d", i), fmt.Sprintf("stress document %d", i))
	}
	if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errC:
		t.Fatalf("search on follower during replay failed: %v", err)
	default:
	}
	verifyLedger(t, cl, 1, l, "stress")
	searchParity(t, cl, l, "stress document", "stress")
}

// TestClusterRouterFailoverToFollower: with the leader dead and not
// restarted, reads routed through the router must still be served by the
// caught-up follower.
func TestClusterRouterFailoverToFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("failover test boots a cluster")
	}
	leakcheck.Check(t)
	cfg := clusterTestConfig()
	cl := startTestCluster(t, 2, wal.SyncNever)
	conn, err := client.Dial(cl.RouterAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	const repoID = "leaderless-reads"
	if err := conn.CreateRepository(context.Background(), repoID, wireOpts(cfg)); err != nil {
		t.Fatal(err)
	}
	l := newLedger(t, cfg, conn, repoID)
	for i := 0; i < 3; i++ {
		l.write(t, fmt.Sprintf("obj-%02d", i), fmt.Sprintf("leaderless document %d", i))
	}
	if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	cl.KillLeader()

	// Reads keep working through the router; mutations are denied, not hung.
	q, err := l.cc.PrepareQuery(&core.Object{ID: "q", Text: "leaderless document"}, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	readConn, err := client.Dial(cl.RouterAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = readConn.Close() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err = readConn.Search(context.Background(), repoID, q); err == nil {
			break
		}
		// The router may need a health-probe cycle to mark the leader dead.
		if time.Now().After(deadline) {
			t.Fatalf("leaderless search never succeeded: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	up, err := l.cc.PrepareUpdate(&core.Object{ID: "rejected", Owner: "tenant-0", Text: "no leader"}, dataKey())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := readConn.Update(ctx, repoID, up); err == nil {
		t.Fatal("mutation acknowledged with the leader dead")
	}
	if err := cl.RestartLeader(); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	verifyLedger(t, cl, 0, l, "restarted")
	verifyLedger(t, cl, 1, l, "restarted")
}

// TestClusterScaleSmoke: the scale-point harness end to end at minimal size
// — the cheap guard that keeps mie-bench -experiment cluster runnable.
func TestClusterScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke boots two clusters")
	}
	leakcheck.Check(t)
	cfg := clusterTestConfig()
	for _, n := range []int{1, 2} {
		pt, err := clusterScalePoint(cfg, filepath.Join(t.TempDir(), fmt.Sprintf("scale-%d", n)), n, 150*time.Millisecond)
		if err != nil {
			t.Fatalf("scale@%d: %v", n, err)
		}
		if pt.Searches == 0 || pt.ThroughputQPS <= 0 {
			t.Fatalf("scale@%d measured nothing: %+v", n, pt)
		}
	}
}

// The cluster gates, at quick scale: a 2-node WAL-shipping cluster behind
// the consistent-hash router, with a leader kill and restart in the middle
// of an acknowledged-write ledger. Zero acknowledged writes may be lost,
// leader and follower must answer searches identically after catch-up, and
// the failover phase must actually have killed the leader.
func TestClusterExperimentGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick-scale cluster experiment")
	}
	leakcheck.Check(t)
	report, err := ClusterExperiment(Quick(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if report.LostAcks != 0 {
		t.Errorf("lost %d of %d acknowledged writes across a leader kill", report.LostAcks, report.AckedWrites)
	}
	if !report.SearchParity {
		t.Error("leader/follower search parity broken after catch-up")
	}
	if report.LeaderKills == 0 {
		t.Error("the failover phase never killed the leader")
	}
}
