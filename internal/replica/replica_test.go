package replica

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/leakcheck"
	"mie/internal/obs"
	"mie/internal/server"
	"mie/internal/wire"
)

func testKey(b byte) crypto.Key {
	var k crypto.Key
	for i := range k {
		k[i] = b
	}
	return k
}

// testClient is a text-only client: replication ships opaque engine records,
// so the cheapest modality exercises every path.
func testClient(t *testing.T) *core.Client {
	t.Helper()
	c, err := core.NewClient(core.ClientConfig{Key: core.RepositoryKey{Master: testKey(1)}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func openSvc(t *testing.T, dir string) *core.Service {
	t.Helper()
	svc, _, err := core.OpenService(core.ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func mustUpdate(t *testing.T, c *core.Client, repo *core.Repository, id, text string) {
	t.Helper()
	up, err := c.PrepareUpdate(&core.Object{ID: id, Owner: "u", Text: text}, testKey(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(up); err != nil {
		t.Fatal(err)
	}
}

// searchIDs runs a text query and returns the hit ids, for parity checks.
func searchIDs(t *testing.T, c *core.Client, repo *core.Repository, text string) []core.SearchHit {
	t.Helper()
	q, err := c.PrepareQuery(&core.Object{ID: "q", Text: text}, 10)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := repo.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

// collector subscribes to one hub stream on a goroutine and accumulates
// records until stopped.
type collector struct {
	mu     sync.Mutex
	recs   []wire.ReplRecord
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

func collect(h *Hub, repoID string, cur Cursor) *collector {
	ctx, cancel := context.WithCancel(context.Background())
	c := &collector{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		c.err = h.Subscribe(ctx, wire.ReplSubscribeReq{RepoID: repoID, Gen: cur.Gen, Seq: cur.Seq}, func(b *wire.ReplRecords) error {
			c.mu.Lock()
			c.recs = append(c.recs, b.Records...)
			c.mu.Unlock()
			return nil
		})
	}()
	return c
}

func (c *collector) records() []wire.ReplRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.ReplRecord(nil), c.recs...)
}

// waitRecords polls until the collector has seen a record at cursor head.
func (c *collector) waitHead(t *testing.T, head Cursor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, r := range c.records() {
			if r.Gen == head.Gen && r.Seq == head.Seq {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no record at head %+v; have %d records", head, len(c.records()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *collector) stop(t *testing.T) {
	t.Helper()
	c.cancel()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber did not stop")
	}
	if c.err != nil && !errors.Is(c.err, context.Canceled) {
		t.Fatalf("subscribe ended with %v", c.err)
	}
}

// TestHubSnapshotThenLive: a zero-cursor subscriber first receives a
// snapshot stamped with the cut cursor, then live mutation records one by
// one.
func TestHubSnapshotThenLive(t *testing.T) {
	leakcheck.Check(t)
	svc := openSvc(t, t.TempDir())
	defer func() { _ = svc.Close() }()
	hub := NewHub(svc, obs.NewRegistry())
	c := testClient(t)
	repo, err := svc.CreateRepository("r", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustUpdate(t, c, repo, fmt.Sprintf("o%d", i), fmt.Sprintf("document %d alpha", i))
	}

	head := hub.Head("r")
	col := collect(hub, "r", Cursor{})
	col.waitHead(t, head)
	recs := col.records()
	if recs[0].Kind != wire.ReplSnapshot {
		t.Fatalf("first record kind %d, want snapshot", recs[0].Kind)
	}
	if got := (Cursor{Gen: recs[0].Gen, Seq: recs[0].Seq}); got != head {
		t.Fatalf("snapshot cursor %+v, want head %+v", got, head)
	}

	mustUpdate(t, c, repo, "o3", "document 3 alpha")
	newHead := hub.Head("r")
	if newHead.Seq != head.Seq+1 || newHead.Gen != head.Gen {
		t.Fatalf("head advanced %+v -> %+v, want seq+1 same gen", head, newHead)
	}
	col.waitHead(t, newHead)
	recs = col.records()
	last := recs[len(recs)-1]
	if last.Kind != wire.ReplMutation || last.Seq != newHead.Seq {
		t.Fatalf("live record kind %d seq %d, want mutation at %d", last.Kind, last.Seq, newHead.Seq)
	}
	col.stop(t)
}

// TestHubResumeFromCursor: a cursor inside the buffer resumes record by
// record — no snapshot retransfer.
func TestHubResumeFromCursor(t *testing.T) {
	leakcheck.Check(t)
	svc := openSvc(t, t.TempDir())
	defer func() { _ = svc.Close() }()
	hub := NewHub(svc, obs.NewRegistry())
	c := testClient(t)
	repo, err := svc.CreateRepository("r", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustUpdate(t, c, repo, fmt.Sprintf("o%d", i), fmt.Sprintf("resume doc %d", i))
	}
	head := hub.Head("r")
	col := collect(hub, "r", Cursor{Gen: head.Gen, Seq: head.Seq - 2})
	col.waitHead(t, head)
	recs := col.records()
	if len(recs) != 2 {
		t.Fatalf("resumed %d records, want 2", len(recs))
	}
	for i, r := range recs {
		if r.Kind != wire.ReplMutation {
			t.Fatalf("record %d kind %d, want mutation", i, r.Kind)
		}
		if want := head.Seq - 1 + uint64(i); r.Seq != want {
			t.Fatalf("record %d seq %d, want %d", i, r.Seq, want)
		}
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	col.stop(t)
}

// TestHubTrimFallsBackToSnapshot: a cursor trimmed out of the shrunken
// buffer is served a snapshot instead of a gap.
func TestHubTrimFallsBackToSnapshot(t *testing.T) {
	leakcheck.Check(t)
	oldRecs := maxBufferedRecords
	maxBufferedRecords = 4
	defer func() { maxBufferedRecords = oldRecs }()

	svc := openSvc(t, t.TempDir())
	defer func() { _ = svc.Close() }()
	hub := NewHub(svc, obs.NewRegistry())
	c := testClient(t)
	repo, err := svc.CreateRepository("r", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustUpdate(t, c, repo, fmt.Sprintf("o%d", i), fmt.Sprintf("trim doc %d", i))
	}
	head := hub.Head("r")
	// Seq 1 was trimmed long ago (only the last 4 records remain).
	col := collect(hub, "r", Cursor{Gen: head.Gen, Seq: 1})
	col.waitHead(t, head)
	recs := col.records()
	if recs[0].Kind != wire.ReplSnapshot {
		t.Fatalf("trimmed cursor served kind %d, want snapshot", recs[0].Kind)
	}
	if got := (Cursor{Gen: recs[0].Gen, Seq: recs[0].Seq}); got != head {
		t.Fatalf("snapshot cursor %+v, want %+v", got, head)
	}
	col.stop(t)
}

// TestHubRotationOnEpochInstalled: a train install rotates the generation,
// so an old-generation cursor is forced through a snapshot that carries the
// new generation.
func TestHubRotationOnEpochInstalled(t *testing.T) {
	leakcheck.Check(t)
	svc := openSvc(t, t.TempDir())
	defer func() { _ = svc.Close() }()
	hub := NewHub(svc, obs.NewRegistry())
	c := testClient(t)
	repo, err := svc.CreateRepository("r", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, c, repo, "o0", "rotation doc")
	old := hub.Head("r")
	hub.EpochInstalled("r", 1)
	head := hub.Head("r")
	if head.Gen == old.Gen {
		t.Fatal("generation did not rotate on epoch install")
	}
	col := collect(hub, "r", old)
	col.waitHead(t, head)
	recs := col.records()
	if recs[0].Kind != wire.ReplSnapshot || recs[0].Gen != head.Gen {
		t.Fatalf("post-rotation record kind %d gen %d, want snapshot in gen %d", recs[0].Kind, recs[0].Gen, head.Gen)
	}
	col.stop(t)
}

// startLeader boots a replicating leader server over a fresh durable
// service.
func startLeader(t *testing.T, dir string) (*core.Service, *Hub, *server.Server) {
	t.Helper()
	svc := openSvc(t, dir)
	hub := NewHub(svc, obs.NewRegistry())
	srv, err := server.New("127.0.0.1:0", svc, nil, server.WithReplication(hub))
	if err != nil {
		_ = svc.Close()
		t.Fatal(err)
	}
	return svc, hub, srv
}

// waitFollowerCaughtUp polls until the follower's cursors match the hub's
// heads for the catalog and every given repo.
func waitFollowerCaughtUp(t *testing.T, fol *Follower, hub *Hub, repos []string) {
	t.Helper()
	streams := append([]string{CatalogStream}, repos...)
	deadline := time.Now().Add(10 * time.Second)
	for {
		behind := false
		for _, id := range streams {
			if fol.Cursor(id) != hub.Head(id) {
				behind = true
				break
			}
		}
		if !behind {
			return
		}
		if time.Now().After(deadline) {
			for _, id := range streams {
				t.Logf("stream %q: follower %+v leader %+v", id, fol.Cursor(id), hub.Head(id))
			}
			t.Fatal("follower never caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerReplicatesEndToEnd: catalog discovery, snapshot + live
// replication over the real wire, search/get parity, and drop convergence.
func TestFollowerReplicatesEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	svc, hub, srv := startLeader(t, t.TempDir())
	defer func() { _ = svc.Close() }()
	defer func() { _ = srv.Close() }()
	c := testClient(t)

	// One repo exists before the follower connects (exercises the catalog
	// listing path), one is created while it is live (the event path).
	r1, err := svc.CreateRepository("pre", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustUpdate(t, c, r1, fmt.Sprintf("o%d", i), fmt.Sprintf("pre-existing doc %d", i))
	}

	folSvc := openSvc(t, t.TempDir())
	defer func() { _ = folSvc.Close() }()
	fol, err := StartFollower(folSvc, srv.Addr(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	r2, err := svc.CreateRepository("live", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustUpdate(t, c, r2, fmt.Sprintf("o%d", i), fmt.Sprintf("live doc %d", i))
	}

	waitFollowerCaughtUp(t, fol, hub, []string{"pre", "live"})
	for _, id := range []string{"pre", "live"} {
		lr, err := svc.Repository(id)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := folSvc.Repository(id)
		if err != nil {
			t.Fatalf("follower missing %q: %v", id, err)
		}
		lh := searchIDs(t, c, lr, "doc 2")
		fh := searchIDs(t, c, fr, "doc 2")
		if !reflect.DeepEqual(lh, fh) {
			t.Fatalf("%s: search parity broken: leader %v follower %v", id, lh, fh)
		}
		lc, lo, err := lr.Get("o1")
		if err != nil {
			t.Fatal(err)
		}
		fc, fo, err := fr.Get("o1")
		if err != nil {
			t.Fatal(err)
		}
		if lo != fo || !reflect.DeepEqual(lc, fc) {
			t.Fatalf("%s: get parity broken", id)
		}
	}
	st := fol.Status()
	if !st.Connected || !st.CaughtUp {
		t.Fatalf("caught-up follower reports %+v", st)
	}

	// Drop converges.
	if err := svc.DropRepository("pre"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := folSvc.Repository("pre"); errors.Is(err, core.ErrRepoNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never dropped the repository")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A leader and its caught-up follower rank identically, call after call. The
// fixture is the one of core's TestRepeatedSearchIsBitIdentical: "up" and
// "down" documents whose scores are equal on paper and differ in the last bit
// with the order the query's terms are summed in, so any dependence on map
// iteration order shows up as two nodes (or two calls) disagreeing.
func TestFollowerRanksLikeLeader(t *testing.T) {
	leakcheck.Check(t)
	svc, hub, srv := startLeader(t, t.TempDir())
	defer func() { _ = svc.Close() }()
	defer func() { _ = srv.Close() }()
	c := testClient(t)
	lr, err := svc.CreateRepository("ranked", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustUpdate(t, c, lr, fmt.Sprintf("up-%d", i), "alpha beta beta gamma gamma gamma")
		mustUpdate(t, c, lr, fmt.Sprintf("down-%d", i), "alpha alpha alpha beta beta gamma")
	}
	for i := 0; i < 8; i++ {
		mustUpdate(t, c, lr, fmt.Sprintf("filler-%d", i), "mountain snow hiking trail")
	}
	if err := lr.Train(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, c, lr, "up-5", "alpha beta beta gamma gamma gamma")
	mustUpdate(t, c, lr, "down-5", "alpha alpha alpha beta beta gamma")

	folSvc := openSvc(t, t.TempDir())
	defer func() { _ = folSvc.Close() }()
	fol, err := StartFollower(folSvc, srv.Addr(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	waitFollowerCaughtUp(t, fol, hub, []string{"ranked"})
	fr, err := folSvc.Repository("ranked")
	if err != nil {
		t.Fatal(err)
	}
	if !fr.IsTrained() {
		t.Fatal("follower did not install the leader's epoch")
	}
	want := searchIDs(t, c, lr, "alpha beta gamma")
	if len(want) != 10 {
		t.Fatalf("%d hits, want 10", len(want))
	}
	for run := 0; run < 50; run++ {
		if got := searchIDs(t, c, lr, "alpha beta gamma"); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: leader disagrees with itself:\n%v\n%v", run, ranked(got), ranked(want))
		}
		if got := searchIDs(t, c, fr, "alpha beta gamma"); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: follower disagrees with leader:\n%v\n%v", run, ranked(got), ranked(want))
		}
	}
}

// ranked renders a hit list without its ciphertexts.
func ranked(hits []core.SearchHit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = fmt.Sprintf("%s:%v", h.ObjectID, h.Score)
	}
	return out
}

// idleFollower builds a Follower without its session loop, for driving the
// apply path by hand.
func idleFollower(svc *core.Service) *Follower {
	reg := obs.NewRegistry()
	return &Follower{
		svc:         svc,
		reg:         reg,
		cursors:     map[string]Cursor{CatalogStream: {}},
		appliedC:    reg.Counter("repl_follower_applied_total"),
		duplicatesC: reg.Counter("repl_follower_duplicates_total"),
		snapshotsC:  reg.Counter("repl_follower_snapshots_total"),
		reconnectsC: reg.Counter("repl_follower_reconnects_total"),
		applyErrsC:  reg.Counter("repl_follower_apply_errors_total"),
		done:        make(chan struct{}),
	}
}

// TestDuplicateDeliveryIdempotent: applying the same record sequence twice
// leaves the cursor and the state exactly where the first pass put them —
// the at-least-once wire can never double-apply.
func TestDuplicateDeliveryIdempotent(t *testing.T) {
	leakcheck.Check(t)
	svc := openSvc(t, t.TempDir())
	defer func() { _ = svc.Close() }()
	hub := NewHub(svc, obs.NewRegistry())
	c := testClient(t)
	repo, err := svc.CreateRepository("r", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, c, repo, "o0", "idempotent base doc")
	head0 := hub.Head("r")
	col := collect(hub, "r", Cursor{})
	col.waitHead(t, head0)
	for i := 1; i < 5; i++ {
		mustUpdate(t, c, repo, fmt.Sprintf("o%d", i), fmt.Sprintf("idempotent doc %d", i))
	}
	head := hub.Head("r")
	col.waitHead(t, head)
	col.stop(t)
	recs := col.records() // snapshot + 4 mutations

	folSvc := openSvc(t, t.TempDir())
	defer func() { _ = folSvc.Close() }()
	fol := idleFollower(folSvc)
	p1, p2 := net.Pipe()
	defer func() { _ = p1.Close() }()
	defer func() { _ = p2.Close() }()
	go func() { _, _ = io.Copy(io.Discard, p2) }()
	s := &session{f: fol, conn: p1, subs: map[uint64]string{}, byRepo: map[string]uint64{}}
	if _, err := folSvc.CreateRepository("r", core.RepositoryOptions{}); err != nil {
		t.Fatal(err)
	}

	apply := func(label string) {
		for i := range recs {
			if err := s.apply("r", &recs[i]); err != nil {
				t.Fatalf("%s: record %d: %v", label, i, err)
			}
		}
	}
	apply("first pass")
	if got := fol.Cursor("r"); got != head {
		t.Fatalf("cursor %+v after first pass, want %+v", got, head)
	}
	applied := fol.appliedC.Value()

	apply("duplicate pass")
	if got := fol.Cursor("r"); got != head {
		t.Fatalf("cursor moved to %+v on duplicates", got)
	}
	if fol.appliedC.Value() != applied {
		t.Fatalf("duplicates were applied: %d -> %d", applied, fol.appliedC.Value())
	}
	if got := fol.duplicatesC.Value(); got != int64(len(recs)) {
		t.Fatalf("dropped %d duplicates, want %d", got, len(recs))
	}

	fr, err := folSvc.Repository("r")
	if err != nil {
		t.Fatal(err)
	}
	lh := searchIDs(t, c, repo, "idempotent doc")
	fh := searchIDs(t, c, fr, "idempotent doc")
	if !reflect.DeepEqual(lh, fh) {
		t.Fatalf("post-duplicate parity broken: leader %v follower %v", lh, fh)
	}
}

// TestApplyRejectsCorruptRecord: a flipped payload byte must fail the CRC
// check before it can reach the engine.
func TestApplyRejectsCorruptRecord(t *testing.T) {
	leakcheck.Check(t)
	svc := openSvc(t, t.TempDir())
	defer func() { _ = svc.Close() }()
	hub := NewHub(svc, obs.NewRegistry())
	c := testClient(t)
	repo, err := svc.CreateRepository("r", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, c, repo, "o0", "corrupt me")
	head := hub.Head("r")
	col := collect(hub, "r", Cursor{})
	col.waitHead(t, head)
	col.stop(t)
	recs := col.records()

	folSvc := openSvc(t, t.TempDir())
	defer func() { _ = folSvc.Close() }()
	fol := idleFollower(folSvc)
	s := &session{f: fol, subs: map[uint64]string{}, byRepo: map[string]uint64{}}
	bad := recs[0]
	bad.Payload = append([]byte(nil), bad.Payload...)
	bad.Payload[0] ^= 0xff
	if err := s.apply("r", &bad); !errors.Is(err, wire.ErrReplCRC) {
		t.Fatalf("corrupt record applied with err=%v, want CRC mismatch", err)
	}
	if got := fol.Cursor("r"); got != (Cursor{}) {
		t.Fatalf("cursor advanced to %+v on a corrupt record", got)
	}
}

// TestApplyRejectsOldFormatRecord: a leader that still writes the gob
// records of the previous format (an upgrade that skipped the "together")
// gets a typed, counted refusal — the record passes its CRC but never
// reaches the engine or the follower's log, and the cursor stays put.
func TestApplyRejectsOldFormatRecord(t *testing.T) {
	leakcheck.Check(t)
	var gobRecord bytes.Buffer
	if err := gob.NewEncoder(&gobRecord).Encode(struct {
		Remove   bool
		ObjectID string
	}{Remove: true, ObjectID: "obj-1"}); err != nil {
		t.Fatal(err)
	}

	folSvc := openSvc(t, t.TempDir())
	defer func() { _ = folSvc.Close() }()
	repo, err := folSvc.CreateRepository("r", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fol := idleFollower(folSvc)
	fol.setCursor("r", Cursor{Gen: 7})
	s := &session{f: fol, subs: map[uint64]string{}, byRepo: map[string]uint64{}}
	rec := wire.NewReplRecord(7, 1, wire.ReplMutation, 0, gobRecord.Bytes())
	if err := s.apply("r", &rec); !errors.Is(err, core.ErrBadWALRecord) {
		t.Fatalf("gob record applied with err=%v, want ErrBadWALRecord", err)
	}
	if got := fol.applyErrsC.Value(); got != 1 {
		t.Errorf("repl_follower_apply_errors_total = %d, want 1", got)
	}
	if got := fol.Cursor("r"); got != (Cursor{Gen: 7}) {
		t.Errorf("cursor advanced to %+v on a refused record", got)
	}
	if repo.Size() != 0 {
		t.Errorf("refused record left %d objects behind", repo.Size())
	}
}

// cutProxy forwards one leader connection but tears it down after limit
// server->client bytes — mid-frame, mid-record. Later connections pass
// through untouched.
type cutProxy struct {
	ln     net.Listener
	target string
	limit  int64

	mu    sync.Mutex
	first bool
	conns []net.Conn
	wg    sync.WaitGroup
}

func newCutProxy(t *testing.T, target string, limit int64) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, target: target, limit: limit, first: true}
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

func (p *cutProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = conn.Close()
			continue
		}
		p.mu.Lock()
		cut := p.first
		p.first = false
		p.conns = append(p.conns, conn, up)
		p.mu.Unlock()
		p.wg.Add(2)
		go func() { defer p.wg.Done(); _, _ = io.Copy(up, conn); _ = up.Close() }()
		go func() {
			defer p.wg.Done()
			if cut {
				_, _ = io.CopyN(conn, up, p.limit)
				_ = up.Close()
			} else {
				_, _ = io.Copy(conn, up)
			}
			_ = conn.Close()
		}()
	}
}

func (p *cutProxy) Close() {
	_ = p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// TestFollowerTornMidRecordResume: the session is torn mid-frame at several
// byte offsets; the follower must reconnect, resume from its cursor, and end
// byte-identical to the leader — the torn partial frame never corrupts
// anything. The offsets straddle the three frames the leader sends: the
// handshake ends at byte 49, the catalog batch at 136 (it was 342 while the
// catalog payload was a gob struct, which is why 100 joined the list) and
// the repository's snapshot record at 3483. A cut just past the catalog
// batch (150) once left the repository announced but never resubscribed.
func TestFollowerTornMidRecordResume(t *testing.T) {
	leakcheck.Check(t)
	svc, hub, srv := startLeader(t, t.TempDir())
	defer func() { _ = svc.Close() }()
	defer func() { _ = srv.Close() }()
	c := testClient(t)
	repo, err := svc.CreateRepository("r", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustUpdate(t, c, repo, fmt.Sprintf("o%d", i), fmt.Sprintf("torn resume doc %d", i))
	}

	for _, limit := range []int64{40, 100, 150, 300, 600, 2000} {
		t.Run(fmt.Sprintf("cut@%d", limit), func(t *testing.T) {
			proxy := newCutProxy(t, srv.Addr(), limit)
			defer proxy.Close()
			folSvc := openSvc(t, t.TempDir())
			defer func() { _ = folSvc.Close() }()
			fol, err := StartFollower(folSvc, proxy.Addr(), obs.NewRegistry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer fol.Close()
			waitFollowerCaughtUp(t, fol, hub, []string{"r"})
			fr, err := folSvc.Repository("r")
			if err != nil {
				t.Fatal(err)
			}
			lh := searchIDs(t, c, repo, "torn resume doc")
			fh := searchIDs(t, c, fr, "torn resume doc")
			if !reflect.DeepEqual(lh, fh) {
				t.Fatalf("parity after torn resume: leader %v follower %v", lh, fh)
			}
		})
	}
}

func (p *cutProxy) Addr() string { return p.ln.Addr().String() }
