package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"mie/internal/dpe"
	"mie/internal/vec"
	"mie/internal/wal"
	"mie/internal/wal/walfault"
)

// mutation is one scripted step of a crash scenario.
type mutation struct {
	remove bool
	id     string
	up     *Update
}

// crashMutations prepares a fixed text-only mutation sequence: four inserts,
// one replace, one remove. Text-only keeps WAL records small so the byte
// matrix stays fast.
func crashMutations(t *testing.T, c *Client) []mutation {
	t.Helper()
	mk := func(id, text string, key byte) *Update {
		up, err := c.PrepareUpdate(&Object{ID: id, Owner: "u", Text: text}, testDataKey(key))
		if err != nil {
			t.Fatal(err)
		}
		return up
	}
	return []mutation{
		{id: "a", up: mk("a", "alpha crashes are survivable", 1)},
		{id: "b", up: mk("b", "beta write ahead logging", 2)},
		{id: "c", up: mk("c", "gamma torn tail truncation", 3)},
		{id: "d", up: mk("d", "delta fsync discipline", 4)},
		{id: "b", up: mk("b", "beta second version replaces", 5)},
		{remove: true, id: "c"},
	}
}

// crashOutcome is what one scenario run left behind.
type crashOutcome struct {
	dir     string
	disk    *walfault.Disk
	walPath string
	// created reports whether CreateRepository was acknowledged.
	created bool
	// acked marks which mutations were acknowledged (err == nil).
	acked []bool
	// oracle is an in-memory repository holding exactly the acknowledged
	// mutations — the state recovery must land on.
	oracle *Repository
	// sizes[i] is the durable WAL size after mutation i (clean runs only).
	sizes []int64
}

// runCrashScenario drives the mutation sequence against a durable service
// whose WAL backing file is a scripted walfault.File, maintaining the
// acknowledged-set oracle alongside.
func runCrashScenario(t *testing.T, script walfault.Script, muts []mutation) *crashOutcome {
	t.Helper()
	out := &crashOutcome{dir: t.TempDir(), disk: walfault.NewDisk()}
	out.walPath = filepath.Join(out.dir, walFileName("cm"))
	out.disk.Script(out.walPath, script)
	walFileOpener = func(p string) (wal.File, error) { return out.disk.Open(p) }
	t.Cleanup(func() { walFileOpener = nil })

	svc, _, err := OpenService(ServiceOptions{Dir: out.dir}) // SyncAlways
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewRepository("cm", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out.oracle = oracle
	repo, err := svc.CreateRepository("cm", RepositoryOptions{})
	if err != nil {
		return out // create itself crashed: nothing is acknowledged
	}
	out.created = true
	out.acked = make([]bool, len(muts))
	for i, m := range muts {
		var err error
		if m.remove {
			err = repo.RemoveContext(context.Background(), m.id)
		} else {
			err = repo.UpdateContext(context.Background(), m.up)
		}
		if err == nil {
			out.acked[i] = true
			if m.remove {
				if err := oracle.RemoveContext(context.Background(), m.id); err != nil {
					t.Fatal(err)
				}
			} else if err := oracle.UpdateContext(context.Background(), m.up); err != nil {
				t.Fatal(err)
			}
		}
		if f := out.disk.File(out.walPath); f != nil {
			out.sizes = append(out.sizes, int64(len(f.Durable())))
		}
	}
	return out
}

// recoverService reloads the scenario's data directory through the same
// fault disk — the post-reboot view.
func recoverService(t *testing.T, out *crashOutcome) (*Service, *RecoveryReport) {
	t.Helper()
	svc, report, err := OpenService(ServiceOptions{Dir: out.dir})
	if err != nil {
		t.Fatalf("recovery must never error on a crashed log: %v", err)
	}
	return svc, report
}

// assertSameObjects compares two repositories' stored object sets and
// ciphertexts.
func assertSameObjects(t *testing.T, label string, got, want *Repository) {
	t.Helper()
	g, w := got.objects.Items(), want.objects.Items()
	if len(g) != len(w) {
		t.Fatalf("%s: recovered %d objects, want %d (%v vs %v)", label, len(g), len(w), sortedIDs(g), sortedIDs(w))
	}
	for id, wo := range w {
		go_, ok := g[id]
		if !ok {
			t.Fatalf("%s: acknowledged object %q lost", label, id)
		}
		if !bytes.Equal(go_.ciphertext, wo.ciphertext) {
			t.Fatalf("%s: object %q recovered with wrong ciphertext", label, id)
		}
	}
}

// verifyCrashPoint asserts the core crash-safety contract for one outcome:
// recovery never errors, and the recovered repository holds exactly the
// acknowledged mutation set.
func verifyCrashPoint(t *testing.T, label string, out *crashOutcome) {
	t.Helper()
	svc, _ := recoverService(t, out)
	defer func() { _ = svc.Close() }()
	repo, err := svc.Repository("cm")
	if !out.created {
		// The create was never acknowledged; it must not resurrect.
		if err == nil {
			t.Fatalf("%s: unacknowledged repository resurrected", label)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: acknowledged repository lost: %v", label, err)
	}
	assertSameObjects(t, label, repo, out.oracle)
}

// TestCrashMatrixEveryByteOffset is the fault-injection matrix of the crash
// contract: with -wal-sync always, kill the log at every byte offset of the
// tail record (plus the boundaries of every earlier record and inside the
// file header), and assert that recovery (a) never errors and (b) lands on
// exactly the acknowledged mutation set — nothing acknowledged lost, nothing
// unacknowledged resurrected.
func TestCrashMatrixEveryByteOffset(t *testing.T) {
	c := testClient(t)
	muts := crashMutations(t, c)

	// Clean run: learn the full log size and each record's end offset.
	clean := runCrashScenario(t, walfault.Script{}, muts)
	for i, ok := range clean.acked {
		if !ok {
			t.Fatalf("clean run: mutation %d not acknowledged", i)
		}
	}
	verifyCrashPoint(t, "clean", clean)
	full := clean.sizes[len(clean.sizes)-1]
	if full <= int64(wal.HeaderSize) {
		t.Fatalf("clean log holds no records (size %d)", full)
	}

	// Offsets: every byte of the tail record, each earlier record's
	// boundary +/-1, and a cut inside the log header.
	offsets := map[int64]bool{int64(wal.HeaderSize) - 3: true}
	tailStart := int64(wal.HeaderSize)
	if n := len(clean.sizes); n >= 2 {
		tailStart = clean.sizes[n-2]
	}
	for x := tailStart + 1; x <= full; x++ {
		offsets[x] = true
	}
	for _, b := range clean.sizes[:len(clean.sizes)-1] {
		offsets[b-1] = true
		offsets[b] = true
		offsets[b+1] = true
	}
	points := make([]int64, 0, len(offsets))
	for x := range offsets {
		if x > 0 {
			points = append(points, x)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })

	for _, x := range points {
		out := runCrashScenario(t, walfault.Script{CrashAtByte: x}, muts)
		verifyCrashPoint(t, fmt.Sprintf("crash@byte=%d", x), out)
	}
}

// TestCrashAfterFsyncFailure: a failed fsync means the ack must be withheld
// and the log poisoned; if the machine then loses power, recovery lands on
// the acknowledged set — the record whose fsync failed is gone, exactly as
// the withheld ack promised.
func TestCrashAfterFsyncFailure(t *testing.T) {
	c := testClient(t)
	muts := crashMutations(t, c)
	// Syncs 1..3 happen before the first mutation (header init + the two
	// Resets of repository creation); sync 6 is the third mutation's.
	out := runCrashScenario(t, walfault.Script{FailSyncAt: 6}, muts)
	if !out.created {
		t.Fatal("create failed before the scripted fsync fault")
	}
	if out.acked[2] {
		t.Fatal("mutation acknowledged despite failed fsync")
	}
	// The later updates hit the poisoned log and must be refused. (The
	// final remove targets the object whose insert just failed, so it is a
	// legitimate no-op ack needing no log entry.)
	if out.acked[3] || out.acked[4] {
		t.Fatalf("updates acknowledged on a poisoned log: %v", out.acked)
	}
	out.disk.File(out.walPath).Crash()
	verifyCrashPoint(t, "fsync-fail+power-cut", out)
}

// TestFailedAndShortWritesRepaired: a failed or torn append is repaired in
// place (the log truncates back to the record boundary), the mutation is
// not acknowledged, and later mutations succeed; a reload then recovers
// exactly the acknowledged set.
func TestFailedAndShortWritesRepaired(t *testing.T) {
	c := testClient(t)
	muts := crashMutations(t, c)
	for name, script := range map[string]walfault.Script{
		// Write 1 is the header; writes 2.. are one per append.
		"fail":  {FailWriteAt: 3},
		"short": {ShortWriteAt: 3},
	} {
		out := runCrashScenario(t, script, muts)
		if !out.created {
			t.Fatalf("%s: create failed before the scripted write fault", name)
		}
		if out.acked[1] {
			t.Fatalf("%s: mutation acknowledged despite write fault", name)
		}
		for i := 2; i < len(out.acked); i++ {
			if !out.acked[i] {
				t.Fatalf("%s: mutation %d failed after the log should have repaired itself", name, i)
			}
		}
		verifyCrashPoint(t, name, out)
	}
}

// TestCrashUnderSyncNever: with -wal-sync never nothing is promised beyond
// the last snapshot; a power cut loses the unsynced mutations but recovery
// still comes up clean on the snapshot state.
func TestCrashUnderSyncNever(t *testing.T) {
	dir := t.TempDir()
	disk := walfault.NewDisk()
	walFileOpener = func(p string) (wal.File, error) { return disk.Open(p) }
	t.Cleanup(func() { walFileOpener = nil })
	opts := ServiceOptions{Dir: dir, Sync: wal.SyncNever}
	svc, _, err := OpenService(opts)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := svc.CreateRepository("nv", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := testClient(t)
	for _, m := range crashMutations(t, c) {
		if m.remove {
			err = repo.RemoveContext(context.Background(), m.id)
		} else {
			err = repo.UpdateContext(context.Background(), m.up)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	disk.File(filepath.Join(dir, walFileName("nv"))).Crash()
	svc2, report, err := OpenService(opts)
	if err != nil {
		t.Fatalf("recovery errored: %v", err)
	}
	r2, err := svc2.Repository("nv")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Size() != 0 {
		t.Errorf("unsynced mutations survived a crash under never: %d objects", r2.Size())
	}
	if report.ReplayedRecords != 0 {
		t.Errorf("replayed %d records from an unsynced log", report.ReplayedRecords)
	}
}

// TestTrainedSnapshotPlusWALReplay composes the two halves of persistence:
// a snapshot carries the trained state, the WAL carries the mutations that
// followed it, and recovery replays the latter onto the former — search
// results afterwards include both, with ranking preserved.
func TestTrainedSnapshotPlusWALReplay(t *testing.T) {
	dir := t.TempDir()
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := svc.CreateRepository("tr", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, repo, 4, 3)
	if err := repo.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := SaveService(svc, dir); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutations live only in the WAL.
	up, err := c.PrepareUpdate(&Object{ID: "wal-only", Owner: "u", Text: "quokka island wildlife"}, testDataKey(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.UpdateContext(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	if err := repo.RemoveContext(context.Background(), "obj-c0-0"); err != nil {
		t.Fatal(err)
	}
	query := testObject(1, 77)
	before := searchIDs(t, c, repo, query, 6)

	// No clean shutdown: reload straight from disk, as after kill -9.
	svc2, report, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if report.ReplayedRecords != 2 {
		t.Errorf("replayed %d records, want 2", report.ReplayedRecords)
	}
	r2, err := svc2.Repository("tr")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.state.Load().trained {
		t.Fatal("trained state lost across snapshot+WAL recovery")
	}
	assertSameObjects(t, "trained", r2, repo)
	if _, _, err := r2.Get("obj-c0-0"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("WAL-logged remove not replayed: %v", err)
	}
	after := searchIDs(t, c, r2, query, 6)
	if strings.Join(before, ",") != strings.Join(after, ",") {
		t.Errorf("ranking changed across recovery: %v vs %v", before, after)
	}
	got := searchIDs(t, c, r2, &Object{ID: "q", Text: "quokka"}, 2)
	if len(got) == 0 || got[0] != "wal-only" {
		t.Errorf("WAL-only object not searchable after recovery: %v", got)
	}
}

// TestDurableLogHoldsExactlyTheAcknowledgedMutations is the write path's
// contract as a property: nothing can fail after the append, so over a
// seeded trace of inserts, overwrites, removes of stored and unknown ids,
// full and incremental Trains, and refused writes of every kind — encodings
// of mixed lengths, an owner over quota, a stale handle to an evicted
// repository, a WAL append error — the log holds one record per
// acknowledged mutation, in acknowledgement order, each the encoding of that
// mutation, and nothing of a refused one. A crash of the log and a reopen
// then land on the live repository's objects.
func TestDurableLogHoldsExactlyTheAcknowledgedMutations(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runLogTrace(t, seed) })
	}
}

func runLogTrace(t *testing.T, seed int64) {
	const (
		repoID  = "trace"
		ids     = 10 // stored ids; removes also draw from 4 ids never stored
		owners  = 3
		perUser = 4 // MaxObjects: an owner holding 4 is refused a fifth
		steps   = 240
	)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	disk := walfault.NewDisk()
	walPath := filepath.Join(dir, walFileName(repoID))
	disk.Script(walPath, walfault.Script{FailWriteAt: 20 + rng.Intn(40)})
	walFileOpener = func(p string) (wal.File, error) { return disk.Open(p) }
	t.Cleanup(func() { walFileOpener = nil })
	opts := ServiceOptions{Dir: dir, Quotas: Quotas{MaxObjects: perUser}} // SyncAlways
	svc, _, err := OpenService(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	repo, err := svc.CreateRepository(repoID, smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Image codes sit near a few centres, so a refinement usually stays
	// under the drift guard and later Trains go incremental.
	centres := []vec.BitVec{randomCode(rng, 64), randomCode(rng, 64), randomCode(rng, 64)}
	codes := func() []vec.BitVec {
		out := make([]vec.BitVec, 1+rng.Intn(3))
		for i := range out {
			out[i] = nearCode(rng, centres[rng.Intn(len(centres))], 4)
		}
		return out
	}
	update := func(step int, id string) *Update {
		return &Update{
			ObjectID:       id,
			Owner:          fmt.Sprintf("u%d", rng.Intn(owners)),
			Ciphertext:     []byte(fmt.Sprintf("ct-%d", step)),
			TextTokens:     map[dpe.Token]uint64{{byte(rng.Intn(16))}: 1, {byte(rng.Intn(16))}: 2},
			ImageEncodings: codes(),
		}
	}
	id := func(n int) string { return fmt.Sprintf("o%02d", rng.Intn(n)) }

	live := map[string][]byte{} // the acknowledged state: id -> ciphertext
	var want [][]byte           // records the log must hold, in order
	refused := map[string]int{}
	modes := map[string]int{}
	// refusal names a refused write's cause, failing on any other error.
	refusal := func(step int, err error) string {
		t.Helper()
		for name, cause := range map[string]error{"length": ErrEncodingLength, "quota": ErrOverQuota, "closed": ErrRepoNotFound, "wal": walfault.ErrInjected} {
			if errors.Is(err, cause) {
				refused[name]++
				return name
			}
		}
		t.Fatalf("step %d: unexpected error %v", step, err)
		return ""
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 50: // insert or overwrite
			up := update(step, id(ids))
			if err := repo.UpdateContext(context.Background(), up); err != nil {
				refusal(step, err)
				continue
			}
			live[up.ObjectID] = up.Ciphertext
			want = append(want, encodeWALRecord(up, up.ObjectID))
		case op < 70: // remove, sometimes of an id never stored
			rid := id(ids + 4)
			if err := repo.RemoveContext(context.Background(), rid); err != nil {
				if refusal(step, err) != "wal" {
					t.Fatalf("step %d: remove refused with %v", step, err)
				}
				continue
			}
			if _, ok := live[rid]; ok { // an unknown id is acknowledged, not logged
				delete(live, rid)
				want = append(want, encodeWALRecord(nil, rid))
			}
		case op < 80:
			if err := repo.TrainContext(context.Background()); err != nil {
				t.Fatalf("step %d: train: %v", step, err)
			}
			modes[repo.LastTrain().Mode]++
		case op < 92: // encodings of two lengths: refused before the append
			up := update(step, id(ids))
			up.ImageEncodings = append(up.ImageEncodings, randomCode(rng, 128))
			if err := repo.UpdateContext(context.Background(), up); refusal(step, err) != "length" {
				t.Fatalf("step %d: mixed-length update refused with %v", step, err)
			}
		default: // a write through a stale handle to an evicted repository
			if err := svc.evictRepository(repoID); err != nil {
				t.Fatal(err)
			}
			if err := repo.UpdateContext(context.Background(), update(step, id(ids))); refusal(step, err) != "closed" {
				t.Fatalf("step %d: update through a stale handle refused with %v", step, err)
			}
			if err := repo.RemoveContext(context.Background(), id(ids)); refusal(step, err) != "closed" {
				t.Fatalf("step %d: remove through a stale handle refused with %v", step, err)
			}
			if repo, err = svc.Repository(repoID); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := readPayloads(t, bytes.NewReader(disk.File(walPath).Durable()))
	if len(got) != len(want) {
		t.Fatalf("log holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d is not the encoding of acknowledged mutation %d", i+1, i+1)
		}
	}
	for _, name := range []string{"length", "quota", "closed"} {
		if refused[name] == 0 {
			t.Errorf("the trace refused no write for %q; refusals %v", name, refused)
		}
	}
	if refused["wal"] != 1 {
		t.Errorf("the injected WAL fault refused %d writes, want 1", refused["wal"])
	}
	if modes["full"] == 0 || modes["incremental"] == 0 {
		t.Errorf("the trace trained %v, want full and incremental runs", modes)
	}
	if repo.Size() != len(live) {
		t.Fatalf("repository holds %d objects, the acknowledged writes %d", repo.Size(), len(live))
	}
	for oid, ct := range live {
		if got, _, err := repo.Get(oid); err != nil || !bytes.Equal(got, ct) {
			t.Fatalf("object %s: %q, %v; want its last acknowledged version", oid, got, err)
		}
	}

	disk.File(walPath).Crash()
	svc2, _, err := OpenService(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc2.Close() }()
	recovered, err := svc2.Repository(repoID)
	if err != nil {
		t.Fatal(err)
	}
	assertSameObjects(t, "after a crash", recovered, repo)
}

// TestDropRepositoryDoesNotResurrect is the stale-snapshot regression test:
// a repository dropped at runtime must not come back on the next restart,
// whether the drop happened on a durable service (files deleted at drop
// time) or between two SaveService calls on an in-memory one (orphan
// snapshots pruned during save).
func TestDropRepositoryDoesNotResurrect(t *testing.T) {
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		svc, _, err := OpenService(ServiceOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"keep", "drop"} {
			if _, err := svc.CreateRepository(id, RepositoryOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := SaveService(svc, dir); err != nil {
			t.Fatal(err)
		}
		if err := svc.DropRepository("drop"); err != nil {
			t.Fatal(err)
		}
		svc2, _, err := OpenService(ServiceOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := svc2.Repositories(); len(got) != 1 || got[0] != "keep" {
			t.Errorf("restart sees %v, want just [keep]", got)
		}
	})
	t.Run("in-memory save prunes orphans", func(t *testing.T) {
		dir := t.TempDir()
		svc := openMem(t)
		for _, id := range []string{"keep", "drop"} {
			if _, err := svc.CreateRepository(id, RepositoryOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := SaveService(svc, dir); err != nil {
			t.Fatal(err)
		}
		if err := svc.DropRepository("drop"); err != nil {
			t.Fatal(err)
		}
		if err := SaveService(svc, dir); err != nil {
			t.Fatal(err)
		}
		svc2, _, err := OpenService(ServiceOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := svc2.Repositories(); len(got) != 1 || got[0] != "keep" {
			t.Errorf("restart sees %v, want just [keep]", got)
		}
	})
}

// TestCrashMidCompaction extends the crash matrix to the segmented index:
// the power cut lands while a background compaction is provably in flight
// (held at its start hook). Compaction only reorganizes derived state, so
// recovery must still land on exactly the acknowledged mutation set — the
// snapshot's trained epoch plus the WAL-logged churn — with ranking intact.
func TestCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	disk := walfault.NewDisk()
	walFileOpener = func(p string) (wal.File, error) { return disk.Open(p) }
	t.Cleanup(func() { walFileOpener = nil })
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	withIndexShape(t, 4, 2)
	repo, err := svc.CreateRepository("mc", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, repo, 3, 3)
	if err := repo.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := SaveService(svc, dir); err != nil {
		t.Fatal(err)
	}

	// Park the next background compaction at its start hook.
	started := make(chan struct{})
	gate := make(chan struct{})
	var startOnce, releaseOnce sync.Once
	compactStartHook = func() {
		startOnce.Do(func() { close(started) })
		<-gate
	}
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		compactStartHook = nil
	})

	// Post-snapshot churn lives only in the WAL; the incremental Train seals
	// the memtables and fires the compactor, which parks at the hook.
	for i, m := range crashMutations(t, c) {
		if m.remove {
			err = repo.RemoveContext(context.Background(), m.id)
		} else {
			err = repo.UpdateContext(context.Background(), m.up)
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	if err := repo.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := repo.LastTrain().Mode; got != "incremental" {
		t.Fatalf("retrain mode = %q, want incremental", got)
	}
	<-started // compaction is now provably mid-flight

	// Power cut while the compactor holds segments mid-merge.
	disk.File(filepath.Join(dir, walFileName("mc"))).Crash()
	release()

	svc2, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recovery errored after mid-compaction crash: %v", err)
	}
	r2, err := svc2.Repository("mc")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.state.Load().trained {
		t.Fatal("trained state lost across mid-compaction crash")
	}
	// Every mutation above was acknowledged: the live repository IS the
	// acknowledged-set oracle.
	assertSameObjects(t, "mid-compaction", r2, repo)
	if _, _, err := r2.Get("c"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("acknowledged remove lost: %v", err)
	}
	got := searchIDs(t, c, r2, &Object{ID: "q", Text: "beta write ahead"}, 2)
	if len(got) == 0 || got[0] != "b" {
		t.Errorf("recovered search = %v, want b first", got)
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOrphanWALPruned: a .wal with no matching snapshot (a create or drop
// that crashed halfway) is removed at load time and reported.
func TestOrphanWALPruned(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ghost.wal"), []byte("MIEWAL1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, report, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Repositories()) != 0 {
		t.Errorf("orphan wal produced repositories: %v", svc.Repositories())
	}
	if report.OrphansRemoved != 1 {
		t.Errorf("OrphansRemoved = %d, want 1", report.OrphansRemoved)
	}
	if _, err := os.Stat(filepath.Join(dir, "ghost.wal")); !os.IsNotExist(err) {
		t.Error("orphan wal still on disk")
	}
}

// TestRecoveryReportOfAFixedDirectory opens one directory of every start-up
// shape — a snapshot, a WAL with records past it, a torn tail, an orphan
// log — and holds the RecoveryReport to literals recorded before start-up
// loads went through activation, field by field. The records are built by
// hand, not by a Client, so their bytes are fixed. Start-up loads count as
// activations now (they were not counted before): one repository, one.
func TestRecoveryReportOfAFixedDirectory(t *testing.T) {
	dir := t.TempDir()
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := svc.CreateRepository("fx", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	up := func(id string, n byte) *Update {
		return &Update{ObjectID: id, Owner: "u", Ciphertext: bytes.Repeat([]byte{n}, 40),
			TextTokens: map[dpe.Token]uint64{{n}: 1, {n, 1}: 2}}
	}
	for i, id := range []string{"a", "b", "c", "d", "b"} {
		if i == 2 {
			if err := SaveService(svc, dir); err != nil {
				t.Fatal(err)
			}
		}
		if err := repo.UpdateContext(context.Background(), up(id, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.RemoveContext(context.Background(), "c"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName("fx")), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 9, 1, 2, 3}); err != nil { // a record header cut short
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ghost.wal"), []byte("MIEWAL1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, report, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	want := RecoveryReport{Repositories: 1, ReplayedRecords: 4, ReplayedBytes: 348, TornBytes: 7, OrphansRemoved: 1}
	if *report != want {
		t.Errorf("report = %+v\nwant     %+v", *report, want)
	}
	if st := svc.Lifecycle(); st.Activations != 1 || st.Active != 1 {
		t.Errorf("after start-up: %+v, want 1 activation, 1 active", st)
	}
}

// TestSnapshotTempLeftoverSwept: a snapshot write that crashed before its
// rename leaves a ".snap-*" temp file; the next open removes and counts it.
func TestSnapshotTempLeftoverSwept(t *testing.T) {
	dir := t.TempDir()
	leftover := filepath.Join(dir, ".snap-1234567")
	if err := os.WriteFile(leftover, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, report, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	if report.OrphansRemoved != 1 {
		t.Errorf("OrphansRemoved = %d, want 1", report.OrphansRemoved)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Errorf("temp leftover still on disk: %v", err)
	}
}

// BenchmarkTrainedUpdate is the write path ingest-durable measures, without
// the transport: a durable (sync=always), trained repository at the spine's
// engine shape — 29 codes of 2048 bits per object, 200 visual words, tree
// 4×3 — under the workload's mix of 70 % overwrites of a live id, 20 %
// inserts and 10 % removes. heap-growth-B/op is the live heap a mutation
// leaves behind (HeapAlloc after a GC, before and after the loop): the store
// and index entries of the inserts — their bytes are the pool's — and nothing
// per overwrite.
func BenchmarkTrainedUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	svc, _, err := OpenService(ServiceOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	r, err := svc.CreateRepository("trained-update", RepositoryOptions{
		VocabWords: 200, VocabMaxIter: 5, TreeBranch: 4, TreeHeight: 3, TreeSeed: 1,
		TrainingSampleCap: 3000,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := spineShapeUpdates(rng, 128)
	var live []string
	for _, up := range pool {
		if err := r.UpdateContext(context.Background(), up); err != nil {
			b.Fatal(err)
		}
		live = append(live, up.ObjectID)
	}
	if err := r.TrainContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	fresh := 0
	before := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch roll := rng.Intn(10); {
		case roll < 7:
			up := *pool[rng.Intn(len(pool))]
			up.ObjectID = live[rng.Intn(len(live))]
			err = r.UpdateContext(context.Background(), &up)
		case roll == 9 && len(live) > 1:
			j := rng.Intn(len(live))
			err = r.RemoveContext(context.Background(), live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			up := *pool[rng.Intn(len(pool))]
			up.ObjectID = fmt.Sprintf("w-%d", fresh)
			fresh++
			live = append(live, up.ObjectID)
			err = r.UpdateContext(context.Background(), &up)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((float64(liveHeap())-float64(before))/float64(b.N), "heap-growth-B/op")
}
