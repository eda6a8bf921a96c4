package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mie/internal/index"
)

// gateTrain installs trainInstallHook so a Train call parks off-lock right
// before installing the new epoch. It returns a channel that closes when
// training reaches the gate, and a release function.
func gateTrain(t *testing.T) (reached chan struct{}, release func()) {
	t.Helper()
	reached = make(chan struct{})
	blocked := make(chan struct{})
	var reachOnce sync.Once
	trainInstallHook = func() {
		reachOnce.Do(func() { close(reached) })
		<-blocked // released once; later Train calls pass straight through
	}
	t.Cleanup(func() { trainInstallHook = nil })
	var once sync.Once
	return reached, func() { once.Do(func() { close(blocked) }) }
}

// textUpdate fabricates a deterministic text-only update through the real
// client pipeline. freq controls the term frequency of the single keyword
// "oceanwave", so ranked scores are distinct and exactly reproducible.
func textUpdate(t *testing.T, c *Client, id string, freq int) *Update {
	t.Helper()
	obj := &Object{
		ID:    id,
		Owner: "stress",
		Text:  strings.TrimSpace(strings.Repeat("oceanwave ", freq)),
	}
	up, err := c.PrepareUpdate(obj, testDataKey(9))
	if err != nil {
		t.Fatal(err)
	}
	return up
}

// TestSearchAndWritesProceedWhileTrainInFlight holds a retrain at its
// install point and proves that Search, Get, Update and Remove all complete
// while training is provably still running — the epoch-swap design's core
// claim. The old engine kept one write lock across k-means plus a full
// reindex, which stalled every one of these calls.
func TestSearchAndWritesProceedWhileTrainInFlight(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("nonblock", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 4, 3)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}

	reached, release := gateTrain(t)
	defer release()
	trainDone := make(chan error, 1)
	go func() { trainDone <- r.Train() }()
	<-reached // training is now in flight, parked before the epoch swap

	// A search issued mid-training must return (served by the old epoch)
	// before training finishes.
	q, err := c.PrepareQuery(&Object{ID: "q", Text: "beach sand ocean"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatalf("mid-train search: %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("mid-train search returned no hits")
	}
	select {
	case <-trainDone:
		t.Fatal("training finished before the gate was released")
	default:
	}

	// Writes also proceed: an update lands in the old epoch's index and is
	// immediately searchable mid-training.
	up := textUpdate(t, c, "midtrain-1", 3)
	if err := r.Update(up); err != nil {
		t.Fatalf("mid-train update: %v", err)
	}
	qNew, err := c.PrepareQuery(&Object{ID: "q2", Text: "oceanwave"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err = r.Search(qNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ObjectID != "midtrain-1" {
		t.Fatalf("mid-train update not searchable mid-training: %+v", hits)
	}
	if _, _, err := r.Get("midtrain-1"); err != nil {
		t.Fatalf("mid-train get: %v", err)
	}
	r.Remove("midtrain-1")
	if _, _, err := r.Get("midtrain-1"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("mid-train remove not visible: err=%v", err)
	}

	release()
	if err := <-trainDone; err != nil {
		t.Fatalf("train: %v", err)
	}
	if !r.IsTrained() {
		t.Fatal("not trained after release")
	}
	// The install-time re-index must have carried the mid-train update AND
	// its removal into the new epoch: the object stays gone.
	hits, err = r.Search(qNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("removed mid-train object resurfaced after swap: %+v", hits)
	}
}

// TestTrainReindexMatchesSequentialOracle runs concurrent Update/Remove/
// Search traffic against a repository while Train is provably in flight,
// then checks the post-train index state against a sequential oracle: a
// fresh repository given the same final object set, trained, and queried
// identically. The scripts include the two orders a set of ids loses and a
// log of records keeps — overwrite-then-remove and remove-then-re-add of one
// id — because the install-time re-index reads the store instead of replaying
// a log. Run under -race this is also the data-race workout for the
// store/deltaIDs/epoch-swap machinery. Both modes of the held Train run: the
// incremental one re-indexes into the carried indexes, the full one into the
// fresh indexes it built from a snapshot taken before any of the writes.
func TestTrainReindexMatchesSequentialOracle(t *testing.T) {
	t.Run("incremental", func(t *testing.T) { trainReindexOracle(t, false) })
	t.Run("full", func(t *testing.T) { trainReindexOracle(t, true) })
}

func trainReindexOracle(t *testing.T, disableIncremental bool) {
	c := testClient(t)
	opts := smallRepoOptions()
	opts.Incremental.Disable = disableIncremental
	r, err := NewRepository("stress", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Base corpus (with images, so the codebook path trains too).
	fillRepo(t, c, r, 3, 3)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}

	// Pre-build every writer's script sequentially (PrepareUpdate involves
	// no repository state, and t.Fatal must not fire inside goroutines);
	// the goroutines below only apply them. Each writer owns a disjoint id
	// range, so the final object set is deterministic regardless of
	// interleaving.
	const writers = 4
	const perWriter = 10
	type step struct {
		id      string
		up      *Update // nil means Remove
		isFinal bool    // this step determines the id's final state
	}
	scripts := make([][]step, writers)
	final := map[string]*Update{}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := fmt.Sprintf("st-%d-%d", w, i)
			first := textUpdate(t, c, id, (w*perWriter+i)%5+1)
			second := textUpdate(t, c, id, (w+i)%4+2)
			switch i % 5 {
			case 0: // insert then overwrite with a different frequency
				scripts[w] = append(scripts[w], step{id: id, up: first}, step{id: id, up: second, isFinal: true})
				final[id] = second
			case 1: // insert then remove again
				scripts[w] = append(scripts[w], step{id: id, up: first}, step{id: id, isFinal: true})
			case 2: // insert, overwrite, then remove: nothing may survive
				scripts[w] = append(scripts[w], step{id: id, up: first}, step{id: id, up: second}, step{id: id, isFinal: true})
			case 3: // insert, remove, then re-add: the re-added version survives
				scripts[w] = append(scripts[w], step{id: id, up: first}, step{id: id}, step{id: id, up: second, isFinal: true})
				final[id] = second
			default: // keep the first version
				scripts[w] = append(scripts[w], step{id: id, up: first, isFinal: true})
				final[id] = first
			}
		}
	}
	searchQ, err := c.PrepareQuery(&Object{ID: "sq", Text: "oceanwave beach"}, 5)
	if err != nil {
		t.Fatal(err)
	}

	reached, release := gateTrain(t)
	trainDone := make(chan error, 1)
	go func() { trainDone <- r.Train() }()
	<-reached

	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(script []step) {
			defer writerWg.Done()
			for _, s := range script {
				if s.up == nil {
					r.Remove(s.id)
				} else if err := r.Update(s.up); err != nil {
					t.Errorf("update %s: %v", s.id, err)
					return
				}
			}
		}(scripts[w])
	}
	// Concurrent searchers run until the writers drain: results are
	// epoch-dependent mid-swap, so only errors and races count here.
	stop := make(chan struct{})
	var searchWg sync.WaitGroup
	for s := 0; s < 2; s++ {
		searchWg.Add(1)
		go func() {
			defer searchWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Search(searchQ); err != nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
			}
		}()
	}
	// Writers finish while Train is still parked at the gate: every id they
	// touch lands in deltaIDs and must come out of the re-index as the store
	// holds it.
	writerWg.Wait()
	close(stop)
	searchWg.Wait()
	select {
	case <-trainDone:
		t.Fatal("training finished while gate was held")
	default:
	}
	release()
	if err := <-trainDone; err != nil {
		t.Fatalf("train: %v", err)
	}
	if got, want := r.LastTrain().Mode == "full", disableIncremental; got != want {
		t.Fatalf("held train resolved as %q", r.LastTrain().Mode)
	}

	// Oracle: same base corpus + the same final writer objects, applied
	// sequentially, then trained.
	oracle, err := NewRepository("oracle", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, oracle, 3, 3)
	for id, up := range final {
		if err := oracle.Update(up); err != nil {
			t.Fatalf("oracle update %s: %v", id, err)
		}
	}
	if err := oracle.Train(); err != nil {
		t.Fatal(err)
	}

	// A single-term ranked query gives exactly reproducible TF-IDF scores;
	// post-train results must match the oracle hit for hit.
	q, err := c.PrepareQuery(&Object{ID: "oq", Text: "oceanwave"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("post-train hits = %d, oracle = %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ObjectID != want[i].ObjectID {
			t.Fatalf("hit %d: got %s, oracle %s", i, got[i].ObjectID, want[i].ObjectID)
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("hit %d (%s): score %g, oracle %g", i, got[i].ObjectID, got[i].Score, want[i].Score)
		}
	}
	if r.Size() != oracle.Size() {
		t.Fatalf("size %d, oracle %d", r.Size(), oracle.Size())
	}
}

// TestUpdateRollbackOnIndexError injects an index failure for one modality
// mid-update and asserts atomicity: the object insert is rolled back, the
// earlier modality's postings are unwound, and a prior version (when one
// exists) is fully reinstated.
func TestUpdateRollbackOnIndexError(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("rollback", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 3, 3)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}

	// A transient failure: the first image-index insert fails, later ones
	// (including the rollback's best-effort reinstate of the previous
	// version) succeed.
	boom := errors.New("injected image index failure")
	failImageOnce := func() func(Modality) error {
		fired := false
		return func(m Modality) error {
			if m == ModalityImage && !fired {
				fired = true
				return boom
			}
			return nil
		}
	}
	updateIndexHook = failImageOnce()
	t.Cleanup(func() { updateIndexHook = nil })

	// Fresh object: the failed update must leave no trace — not in the
	// store, no text postings either.
	obj := testObject(1, 99)
	obj.ID = "atomic-new"
	up, err := c.PrepareUpdate(obj, testDataKey(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); !errors.Is(err, boom) {
		t.Fatalf("update err = %v, want injected failure", err)
	}
	if _, _, err := r.Get("atomic-new"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("failed update left object stored: err=%v", err)
	}
	updateIndexHook = nil
	q, err := c.PrepareQuery(&Object{ID: "q", Text: obj.Text}, 50)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.ObjectID == "atomic-new" {
			t.Fatal("failed update left text postings behind")
		}
	}

	// Replacement: the failed update must reinstate the previous version.
	victim := "obj-c0-0"
	before, err := r.Search(q0(t, c, 0))
	if err != nil {
		t.Fatal(err)
	}
	updateIndexHook = failImageOnce()
	repl := testObject(0, 0) // same ID as victim, fresh content
	repl.Text = "totally different replacement text"
	upRepl, err := c.PrepareUpdate(repl, testDataKey(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(upRepl); !errors.Is(err, boom) {
		t.Fatalf("replace err = %v, want injected failure", err)
	}
	updateIndexHook = nil
	if _, _, err := r.Get(victim); err != nil {
		t.Fatalf("previous version not reinstated: %v", err)
	}
	after, err := r.Search(q0(t, c, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("search after failed replace: %d hits, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i].ObjectID != before[i].ObjectID {
			t.Fatalf("hit %d changed after failed replace: %s vs %s", i, after[i].ObjectID, before[i].ObjectID)
		}
	}
}

// q0 builds the standing class-0 text query.
func q0(t *testing.T, c *Client, class int) *Query {
	t.Helper()
	q, err := c.PrepareQuery(&Object{ID: "q0", Text: testObject(class, 0).Text}, 10)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSearchDropsStaleHitsWithoutRecordingAccess asserts the access-pattern
// fix: a fused result whose object raced a remove (still present in a
// not-yet-retired index) is dropped AND not counted in the ID(d) access
// leakage — only hits actually returned are recorded.
func TestSearchDropsStaleHitsWithoutRecordingAccess(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("stale", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 3, 3) // 3 classes, so class terms have non-zero IDF
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	// Simulate the race window: the object vanishes from the store while
	// its postings are still in the serving epoch's index (exactly what a
	// search sees between an index lookup and hit collection).
	victim := "obj-c0-0"
	if _, ok := r.objects.Delete(victim); !ok {
		t.Fatalf("victim %s not stored", victim)
	}
	st := r.state.Load()
	found := false
	for _, idx := range st.indexes {
		if idx != nil && idx.Has(index.DocID(victim)) {
			found = true
		}
	}
	if !found {
		t.Fatal("test setup: victim postings should still be indexed")
	}
	q := q0(t, c, 0)
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.ObjectID == victim {
			t.Fatal("stale hit returned")
		}
	}
	if got := r.Leakage().AccessCount(victim); got != 0 {
		t.Fatalf("dropped hit recorded %d accesses, want 0", got)
	}
	// Returned hits ARE recorded.
	if len(hits) == 0 {
		t.Fatal("expected surviving hits")
	}
	if got := r.Leakage().AccessCount(hits[0].ObjectID); got == 0 {
		t.Fatal("returned hit not recorded in access pattern")
	}
}
