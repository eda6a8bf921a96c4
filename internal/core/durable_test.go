package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"mie/internal/cluster"
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
			err = repo.Remove(m.id)
		} else {
			err = repo.Update(m.up)
		}
		if err == nil {
			out.acked[i] = true
			if m.remove {
				if err := oracle.Remove(m.id); err != nil {
					t.Fatal(err)
				}
			} else if err := oracle.Update(m.up); err != nil {
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
			err = repo.Remove(m.id)
		} else {
			err = repo.Update(m.up)
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
	repo, err := svc.CreateRepository("tr", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, repo, 4, 3)
	if err := repo.Train(); err != nil {
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
	if err := repo.Update(up); err != nil {
		t.Fatal(err)
	}
	if err := repo.Remove("obj-c0-0"); err != nil {
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
	if !r2.IsTrained() {
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

// TestWALCompensation: an Update that fails mid-index is rolled back in
// memory AND compensated in the log, so replaying the log after a crash
// converges to the rolled-back state instead of resurrecting the failed
// write.
func TestWALCompensation(t *testing.T) {
	dir := t.TempDir()
	disk := walfault.NewDisk()
	walFileOpener = func(p string) (wal.File, error) { return disk.Open(p) }
	t.Cleanup(func() { walFileOpener = nil })
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := svc.CreateRepository("cp", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, repo, 2, 2)
	if err := repo.Train(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := repo.Size()

	failErr := errors.New("injected index failure")
	updateIndexHook = func(m Modality) error {
		if m == ModalityText {
			return failErr
		}
		return nil
	}
	up, err := c.PrepareUpdate(&Object{ID: "doomed", Owner: "u", Text: "never lands"}, testDataKey(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(up); !errors.Is(err, failErr) {
		t.Fatalf("update err = %v, want injected failure", err)
	}
	updateIndexHook = nil
	if repo.Size() != sizeBefore {
		t.Fatalf("rolled-back update changed size: %d != %d", repo.Size(), sizeBefore)
	}

	disk.File(filepath.Join(dir, walFileName("cp"))).Crash()
	svc2, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc2.Repository("cp")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r2.Get("doomed"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("failed update resurrected by replay: %v", err)
	}
	assertSameObjects(t, "compensation", r2, repo)
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
	opts := smallRepoOptions("")
	opts.Incremental.MemtableCap = 4
	opts.Incremental.CompactSegments = 2
	repo, err := svc.CreateRepository("mc", opts)
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, repo, 3, 3)
	if err := repo.Train(); err != nil {
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
			err = repo.Remove(m.id)
		} else {
			err = repo.Update(m.up)
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	if err := repo.Train(); err != nil {
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
	if !r2.IsTrained() {
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
		Modalities:        []Modality{ModalityText, ModalityImage},
		Vocab:             cluster.VocabParams{Words: 200, Tree: cluster.TreeParams{Branch: 4, Height: 3, Seed: 1}, Seed: 1, MaxIter: 5},
		TrainingSampleCap: 3000,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := spineShapeUpdates(rng, 128)
	var live []string
	for _, up := range pool {
		if err := r.Update(up); err != nil {
			b.Fatal(err)
		}
		live = append(live, up.ObjectID)
	}
	if err := r.Train(); err != nil {
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
			err = r.Update(&up)
		case roll == 9 && len(live) > 1:
			j := rng.Intn(len(live))
			err = r.Remove(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			up := *pool[rng.Intn(len(pool))]
			up.ObjectID = fmt.Sprintf("w-%d", fresh)
			fresh++
			live = append(live, up.ObjectID)
			err = r.Update(&up)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((float64(liveHeap())-float64(before))/float64(b.N), "heap-growth-B/op")
}
