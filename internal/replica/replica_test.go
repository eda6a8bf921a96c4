package replica

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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
	if err := repo.UpdateContext(context.Background(), up); err != nil {
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
	hits, err := repo.SearchContext(context.Background(), q)
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
	if err := lr.TrainContext(context.Background()); err != nil {
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
	if len(fr.IndexStats()) == 0 { // an untrained epoch has no index
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
	}
}

// TestDuplicateDeliveryIdempotent: applying the same record sequence twice
// — the catalog image, then the repository's snapshot and mutations —
// leaves the cursors and the state exactly where the first pass put them:
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
	catHead := hub.Head(CatalogStream)
	cat := collect(hub, CatalogStream, Cursor{})
	cat.waitHead(t, catHead)
	cat.stop(t)
	image := cat.records() // one catalog image
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
	go func() { _, _ = io.Copy(io.Discard, p2) }() // the image's subscribe
	s := &session{f: fol, fc: wire.NewFrameConn(p1), subs: map[uint64]string{}, byRepo: map[string]uint64{}}

	apply := func(label string) {
		for i := range image {
			if err := s.apply(CatalogStream, &image[i]); err != nil {
				t.Fatalf("%s: catalog record %d: %v", label, i, err)
			}
		}
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
	if got := fol.Cursor(CatalogStream); got != catHead {
		t.Fatalf("catalog cursor %+v after first pass, want %+v", got, catHead)
	}
	applied := fol.appliedC.Value()

	apply("duplicate pass")
	if got := fol.Cursor("r"); got != head {
		t.Fatalf("cursor moved to %+v on duplicates", got)
	}
	if got := fol.Cursor(CatalogStream); got != catHead {
		t.Fatalf("catalog cursor moved to %+v on a duplicate image", got)
	}
	if fol.appliedC.Value() != applied {
		t.Fatalf("duplicates were applied: %d -> %d", applied, fol.appliedC.Value())
	}
	if got, want := fol.duplicatesC.Value(), int64(len(image)+len(recs)); got != want {
		t.Fatalf("dropped %d duplicates, want %d", got, want)
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

// TestLagQuantileForgetsOldSamples: the lag ring keeps the newest
// lagSampleCap samples whatever streams they came from. Sequences are per
// stream and restart at 1, so a ring indexed by sequence would pile the
// second phase's samples onto its low slots and keep reporting the first.
func TestLagQuantileForgetsOldSamples(t *testing.T) {
	fol := idleFollower(nil)
	p1, p2 := net.Pipe()
	defer func() { _ = p1.Close() }()
	defer func() { _ = p2.Close() }()
	go func() { _, _ = io.Copy(io.Discard, p2) }() // the acks
	s := &session{f: fol, fc: wire.NewFrameConn(p1), subs: map[uint64]string{}, byRepo: map[string]uint64{}}
	const streams = 4
	feed := func(phase int, lag time.Duration) {
		for st := 0; st < streams; st++ {
			repoID := fmt.Sprintf("p%d-r%d", phase, st)
			id := uint64(phase*streams + st + 1)
			s.subs[id] = repoID
			// Cursor far ahead: every record is a duplicate, so the batch
			// exercises the lag bookkeeping without touching a service.
			fol.setCursor(repoID, Cursor{Gen: 1, Seq: 1 << 30})
			for seq := uint64(1); seq <= lagSampleCap/streams; seq++ {
				rec := wire.NewReplRecord(1, seq, wire.ReplMutation, time.Now().Add(-lag).UnixNano(), []byte{1})
				env, err := wire.NewEnvelope(wire.KindReplRecords, "", id, 0, wire.ReplRecords{RepoID: repoID, Records: []wire.ReplRecord{rec}})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.handleBatch(env); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	feed(0, time.Second)
	feed(1, time.Millisecond)
	if got := fol.LagQuantile(0.5); got < time.Millisecond || got >= 100*time.Millisecond {
		t.Errorf("median lag = %v after %d samples of 1ms, want ~1ms", got, lagSampleCap)
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

// link relays follower connections to a leader address, playing the
// network between the two: its first connection can be torn down after
// limit leader->follower bytes (mid-frame, mid-record), it can be
// partitioned (live connections torn down, new ones refused) and it can be
// repointed at a restarted leader.
type link struct {
	ln net.Listener

	mu          sync.Mutex
	target      string
	limit       int64 // > 0: cut the next connection after this many bytes
	partitioned bool
	conns       []net.Conn
	wg          sync.WaitGroup
}

func newLink(t *testing.T, target string, limit int64) *link {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &link{ln: ln, target: target, limit: limit}
	l.wg.Add(1)
	go l.acceptLoop()
	return l
}

func (l *link) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		target, limit, down := l.target, l.limit, l.partitioned
		l.limit = 0
		l.mu.Unlock()
		var up net.Conn
		if !down {
			up, err = net.Dial("tcp", target)
		}
		if down || err != nil {
			_ = conn.Close()
			continue
		}
		l.mu.Lock()
		l.conns = append(l.conns, conn, up)
		l.mu.Unlock()
		l.wg.Add(2)
		go func() { defer l.wg.Done(); _, _ = io.Copy(up, conn); _ = up.Close() }()
		go func() {
			defer l.wg.Done()
			if limit > 0 {
				_, _ = io.CopyN(conn, up, limit)
				_ = up.Close()
			} else {
				_, _ = io.Copy(conn, up)
			}
			_ = conn.Close()
		}()
	}
}

func (l *link) Addr() string { return l.ln.Addr().String() }

// Partition cuts (or heals) the link.
func (l *link) Partition(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partitioned = on
	if on {
		l.closeConnsLocked()
	}
}

// SetTarget points new connections at another leader address.
func (l *link) SetTarget(addr string) {
	l.mu.Lock()
	l.target = addr
	l.mu.Unlock()
}

func (l *link) closeConnsLocked() {
	for _, c := range l.conns {
		_ = c.Close()
	}
	l.conns = nil
}

func (l *link) Close() {
	_ = l.ln.Close()
	l.mu.Lock()
	l.closeConnsLocked()
	l.mu.Unlock()
	l.wg.Wait()
}

// TestFollowerTornMidRecordResume: the session is torn mid-frame at several
// byte offsets; the follower must reconnect, resume from its cursor, and end
// byte-identical to the leader — the torn partial frame never corrupts
// anything. The offsets straddle the three frames the leader sends: the
// handshake ends at byte 49, the catalog image at about 139 (it was 342
// while the catalog payload was a gob struct, which is why 100 joined the
// list) and the repository's snapshot record at about 3033 (generations and
// timestamps are varints, so the last two move by a byte or two from run to
// run). A cut just past the catalog (150) once left the repository
// announced but never resubscribed; 3000 tears the snapshot record's tail.
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

	for _, limit := range []int64{40, 100, 150, 300, 600, 2000, 3000} {
		t.Run(fmt.Sprintf("cut@%d", limit), func(t *testing.T) {
			proxy := newLink(t, srv.Addr(), limit)
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

// pair is a leader and one follower joined by a link, each on its own data
// directory; either side can be restarted on it.
type pair struct {
	t          *testing.T
	leaderOpts core.ServiceOptions
	svc        *core.Service
	hub        *Hub
	srv        *server.Server
	link       *link
	folDir     string
	folSvc     *core.Service
	fol        *Follower
	c          *core.Client
}

func newPair(t *testing.T, leaderOpts core.ServiceOptions) *pair {
	t.Helper()
	p := &pair{t: t, leaderOpts: leaderOpts, folDir: t.TempDir(), c: testClient(t)}
	p.startLeader()
	p.link = newLink(t, p.srv.Addr(), 0)
	p.startFollower()
	t.Cleanup(func() {
		p.stopFollower()
		p.link.Close()
		p.stopLeader()
	})
	return p
}

// startLeader opens the leader's directory; a snapshot that fails to load
// leaves the rest of the catalog serving, as in cmd/mie-server.
func (p *pair) startLeader() {
	svc, _, err := core.OpenService(p.leaderOpts)
	if svc == nil {
		p.t.Fatal(err)
	}
	p.svc, p.hub = svc, NewHub(svc, obs.NewRegistry())
	if p.srv, err = server.New("127.0.0.1:0", svc, nil, server.WithReplication(p.hub)); err != nil {
		p.t.Fatal(err)
	}
	if p.link != nil {
		p.link.SetTarget(p.srv.Addr())
	}
}

func (p *pair) stopLeader() {
	_ = p.srv.Close()
	_ = p.svc.Close()
}

func (p *pair) startFollower() {
	p.folSvc = openSvc(p.t, p.folDir)
	fol, err := StartFollower(p.folSvc, p.link.Addr(), obs.NewRegistry(), nil)
	if err != nil {
		p.t.Fatal(err)
	}
	p.fol = fol
}

func (p *pair) stopFollower() {
	p.fol.Close()
	_ = p.folSvc.Close()
}

// create makes a repository on the leader holding n objects.
func (p *pair) create(id string, n int) {
	repo, err := p.svc.CreateRepository(id, core.RepositoryOptions{})
	if err != nil {
		p.t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustUpdate(p.t, p.c, repo, fmt.Sprintf("o%d", i), fmt.Sprintf("pair doc %d of %s", i, id))
	}
}

// waitParity waits until the follower is at the leader's head on the
// catalog and every repository the leader hosts, then holds it to the
// leader: the same catalog, and per repository the same objects and
// ranking.
func (p *pair) waitParity() {
	p.t.Helper()
	ids := p.svc.Repositories()
	sort.Strings(ids)
	waitFollowerCaughtUp(p.t, p.fol, p.hub, ids)
	if got := p.fol.Cursor(CatalogStream); got != p.hub.Head(CatalogStream) {
		p.t.Fatalf("catalog cursor %+v, leader head %+v", got, p.hub.Head(CatalogStream))
	}
	got := p.folSvc.Repositories()
	sort.Strings(got)
	if !reflect.DeepEqual(got, ids) {
		p.t.Fatalf("follower hosts %q, leader %q", got, ids)
	}
	for _, id := range ids {
		lr, err := p.svc.Repository(id)
		if err != nil {
			p.t.Fatal(err)
		}
		fr, err := p.folSvc.Repository(id)
		if err != nil {
			p.t.Fatal(err)
		}
		if lr.Size() != fr.Size() {
			p.t.Fatalf("%s: follower holds %d objects, leader %d", id, fr.Size(), lr.Size())
		}
		if lh, fh := searchIDs(p.t, p.c, lr, "pair doc"), searchIDs(p.t, p.c, fr, "pair doc"); !reflect.DeepEqual(lh, fh) {
			p.t.Fatalf("%s: search parity broken: leader %v follower %v", id, ranked(lh), ranked(fh))
		}
	}
}

// TestFollowerForgetsWhatTheLeaderDropped: a follower that missed the drop
// event of repository "a" — it was down, its leader restarted, or the
// catalog buffer was trimmed past the event — is resynced with a catalog
// image and drops "a" with its files, so it never serves a repository its
// leader no longer holds.
func TestFollowerForgetsWhatTheLeaderDropped(t *testing.T) {
	dropA := func(p *pair) {
		if err := p.svc.DropRepository("a"); err != nil {
			p.t.Fatal(err)
		}
	}
	rows := []struct {
		name   string
		buffer int // maxBufferedRecords for the row; 0 keeps the default
		miss   func(p *pair)
	}{
		{name: "follower restarts", miss: func(p *pair) {
			p.stopFollower()
			dropA(p)
			p.startFollower()
		}},
		{name: "leader restarts", miss: func(p *pair) {
			p.link.Partition(true)
			dropA(p)
			p.stopLeader()
			p.startLeader()
			p.link.Partition(false)
		}},
		{name: "catalog trimmed", buffer: 2, miss: func(p *pair) {
			p.link.Partition(true)
			dropA(p)
			for _, id := range []string{"c", "d", "e"} {
				p.create(id, 2)
			}
			p.link.Partition(false)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			leakcheck.Check(t)
			if row.buffer > 0 {
				old := maxBufferedRecords
				maxBufferedRecords = row.buffer
				t.Cleanup(func() { maxBufferedRecords = old })
			}
			p := newPair(t, core.ServiceOptions{Dir: t.TempDir()})
			p.create("a", 3)
			p.create("b", 3)
			p.waitParity()
			row.miss(p)
			p.waitParity()
			if _, err := p.folSvc.Repository("a"); !errors.Is(err, core.ErrRepoNotFound) {
				t.Fatalf("follower still serves the dropped repository: err=%v", err)
			}
			for _, name := range []string{"a.snap", "a.wal"} {
				if _, err := os.Stat(filepath.Join(p.folDir, name)); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s of the dropped repository: stat err=%v, want not exist", name, err)
				}
			}
		})
	}
}

// TestFollowerKeepsWhatItsLeaderCannotOpen: a repository whose snapshot the
// restarted leader cannot load — at start-up, or at activation under a
// memory budget — is listed as present but unopenable in the catalog image,
// and the follower keeps its copy and every object in it.
func TestFollowerKeepsWhatItsLeaderCannotOpen(t *testing.T) {
	for _, budget := range []int64{0, 1 << 30} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			leakcheck.Check(t)
			dir := t.TempDir()
			p := newPair(t, core.ServiceOptions{Dir: dir, MemoryBudget: budget})
			p.create("ok", 3)
			p.create("bad", 4)
			p.waitParity()
			p.link.Partition(true)
			p.stopLeader()
			if err := os.WriteFile(filepath.Join(dir, "bad.snap"), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			p.startLeader()
			p.link.Partition(false)
			waitFollowerCaughtUp(t, p.fol, p.hub, []string{"ok"})
			fr, err := p.folSvc.Repository("bad")
			if err != nil {
				t.Fatalf("follower dropped the repository its leader cannot open: %v", err)
			}
			for i := 0; i < 4; i++ {
				if _, _, err := fr.Get(fmt.Sprintf("o%d", i)); err != nil {
					t.Errorf("object o%d: %v", i, err)
				}
			}
			if fr.Size() != 4 {
				t.Errorf("follower holds %d objects of bad, want 4", fr.Size())
			}
		})
	}
}

// TestFollowerCatchesUpWithAnEmptyCatalog: a leader with no repositories
// answers a catalog subscription with an empty image, so the follower's
// catalog cursor reaches the head without waiting for a first event — at
// start and again after the leader restarts.
func TestFollowerCatchesUpWithAnEmptyCatalog(t *testing.T) {
	leakcheck.Check(t)
	p := newPair(t, core.ServiceOptions{Dir: t.TempDir()})
	p.waitParity()
	p.stopLeader()
	p.startLeader()
	p.waitParity()
}
