package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// textOnlyIncrementalOptions is a text-only repository with a tiny memtable,
// so modest churn exercises auto-seal, multiple segments and compaction.
func textOnlyIncrementalOptions() RepositoryOptions {
	opts := smallRepoOptions()
	opts.Modalities = []Modality{ModalityText}
	opts.Incremental.MemtableCap = 4
	opts.Incremental.CompactSegments = 3
	return opts
}

func TestFirstTrainIsFullRebuild(t *testing.T) {
	_, r := buildTrainedRepo(t, "inc-first")
	info := r.LastTrain()
	if info == nil {
		t.Fatal("LastTrain nil after Train")
	}
	if info.Mode != "full" {
		t.Errorf("first train mode = %q, want full", info.Mode)
	}
	if info.DriftFallback {
		t.Error("first train cannot be a drift fallback")
	}
}

// TestIncrementalTrainOnChurn is the tentpole's core behavior: on a trained
// repository, Train resolves incrementally — only the churned objects are
// re-indexed, the epoch advances, and search reflects every change.
func TestIncrementalTrainOnChurn(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("inc-churn", textOnlyIncrementalOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.Update(textUpdate(t, c, fmt.Sprintf("base-%d", i), i%4+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	// Churn: one new object, one replace, one remove.
	up, err := c.PrepareUpdate(&Object{ID: "fresh", Owner: "u", Text: "zanzibar spice market"}, testDataKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
	repl, err := c.PrepareUpdate(&Object{ID: "base-0", Owner: "u", Text: "quetzal rainforest"}, testDataKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(repl); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("base-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	info := r.LastTrain()
	if info == nil || info.Mode != "incremental" {
		t.Fatalf("LastTrain = %+v, want incremental", info)
	}
	if info.DeltaDocs != 3 {
		t.Errorf("DeltaDocs = %d, want 3 (fresh, base-0, base-1)", info.DeltaDocs)
	}
	if info.Epoch != 2 {
		t.Errorf("Epoch = %d, want 2", info.Epoch)
	}
	// All three changes are searchable facts.
	if got := searchIDs(t, c, r, &Object{ID: "q1", Text: "zanzibar"}, 3); len(got) == 0 || got[0] != "fresh" {
		t.Errorf("new object not found after incremental train: %v", got)
	}
	if got := searchIDs(t, c, r, &Object{ID: "q2", Text: "quetzal"}, 3); len(got) == 0 || got[0] != "base-0" {
		t.Errorf("replaced content not found: %v", got)
	}
	for _, id := range searchIDs(t, c, r, &Object{ID: "q3", Text: "oceanwave"}, 50) {
		if id == "base-1" {
			t.Error("removed object still ranked after incremental train")
		}
	}
	// A second Train with no churn is still incremental (pure seal+compact).
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if info := r.LastTrain(); info.Mode != "incremental" || info.DeltaDocs != 0 {
		t.Errorf("no-churn train = %+v, want incremental with 0 delta", info)
	}
}

// TestIncrementalMatchesFullRebuildRanking is the parity half of the
// acceptance bar: for sparse (vocabulary-free) content, the incremental path
// must rank exactly like a full rebuild of the same final corpus.
func TestIncrementalMatchesFullRebuildRanking(t *testing.T) {
	c := testClient(t)
	inc, err := NewRepository("parity-inc", textOnlyIncrementalOptions())
	if err != nil {
		t.Fatal(err)
	}
	fullOpts := textOnlyIncrementalOptions()
	fullOpts.Incremental.Disable = true
	full, err := NewRepository("parity-full", fullOpts)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(f func(*Repository) error) {
		t.Helper()
		if err := f(inc); err != nil {
			t.Fatal(err)
		}
		if err := f(full); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		up := textUpdate(t, c, fmt.Sprintf("doc-%02d", i), i%6+1)
		apply(func(r *Repository) error { return r.Update(up) })
	}
	apply((*Repository).Train)
	// 25% churn: replacements, removals, inserts — then retrain both.
	for i := 0; i < 4; i++ {
		up := textUpdate(t, c, fmt.Sprintf("doc-%02d", i), (i+3)%6+1)
		apply(func(r *Repository) error { return r.Update(up) })
	}
	apply(func(r *Repository) error { return r.Remove("doc-10") })
	for i := 16; i < 20; i++ {
		up := textUpdate(t, c, fmt.Sprintf("doc-%02d", i), i%6+1)
		apply(func(r *Repository) error { return r.Update(up) })
	}
	apply((*Repository).Train)
	if got := inc.LastTrain().Mode; got != "incremental" {
		t.Fatalf("incremental repo trained in mode %q", got)
	}
	if got := full.LastTrain().Mode; got != "full" {
		t.Fatalf("disabled repo trained in mode %q", got)
	}

	q, err := c.PrepareQuery(&Object{ID: "q", Text: "oceanwave"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("incremental returned %d hits, full rebuild %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ObjectID != want[i].ObjectID {
			t.Fatalf("rank %d: incremental %s, full %s", i, got[i].ObjectID, want[i].ObjectID)
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("rank %d (%s): score %g vs %g", i, got[i].ObjectID, got[i].Score, want[i].Score)
		}
	}
	// Compacting the segmented index must not change the ranking either.
	inc.CompactNow()
	after, err := inc.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i].ObjectID != want[i].ObjectID || math.Abs(after[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("rank %d changed after compaction: %+v vs %+v", i, after[i], want[i])
		}
	}
}

func TestIncrementalDisabledForcesFull(t *testing.T) {
	c := testClient(t)
	opts := textOnlyIncrementalOptions()
	opts.Incremental.Disable = true
	r, err := NewRepository("inc-disabled", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(textUpdate(t, c, "a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(textUpdate(t, c, "b", 3)); err != nil {
		t.Fatal(err)
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if info := r.LastTrain(); info.Mode != "full" || info.DriftFallback {
		t.Errorf("disabled retrain = %+v, want plain full", info)
	}
}

// TestDriftFallbackForcesFullRebuild: churn from a distribution the codebook
// has never seen, with a hair-trigger drift threshold, must reject the
// refined vocabulary and push the run through the full re-cluster.
func TestDriftFallbackForcesFullRebuild(t *testing.T) {
	c := testClient(t)
	opts := smallRepoOptions()
	opts.Incremental.DriftThreshold = 1e-9
	opts.Incremental.ReassignThreshold = -1 // isolate the mean-shift check
	r, err := NewRepository("inc-drift", opts)
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 4, 2) // classes 0 and 1 shape the codebook
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	// Out-of-distribution churn: a third class the vocabulary never saw.
	for i := 0; i < 10; i++ {
		up, err := c.PrepareUpdate(testObject(7, i), testDataKey(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	info := r.LastTrain()
	if info == nil || info.Mode != "full" || !info.DriftFallback {
		t.Fatalf("LastTrain = %+v, want full with DriftFallback", info)
	}
	if info.Drift.MeanShift <= 0 {
		t.Errorf("drift fallback recorded MeanShift %v, want > 0", info.Drift.MeanShift)
	}
	// The fallback rebuilt for real: new-class content is searchable.
	if got := searchIDs(t, c, r, testObject(7, 99), 4); len(got) == 0 {
		t.Error("post-fallback search found nothing for the new class")
	}
}

// TestNewModalityFallsBackToFull: data arriving for a modality that has no
// codebook cannot be refined — Train must detect it and full-train.
func TestNewModalityFallsBackToFull(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("inc-newmod", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	up, err := c.PrepareUpdate(&Object{ID: "t1", Owner: "u", Text: "text only corpus"}, testDataKey(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if r.VocabularySize() != 0 {
		t.Fatalf("unexpected vocabulary %d", r.VocabularySize())
	}
	fillRepo(t, c, r, 3, 2) // images arrive
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if info := r.LastTrain(); info.Mode != "full" {
		t.Errorf("train after first images = %q, want full", info.Mode)
	}
	if r.VocabularySize() == 0 {
		t.Error("fallback did not build the image codebook")
	}
}

// abortTrain runs one Train on r that reaches trainInstallHook — codebooks
// and indexes ready — and is cancelled there, so it must not install.
func abortTrain(t *testing.T, r *Repository) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	trainInstallHook = cancel
	defer func() { trainInstallHook = nil }()
	if err := r.TrainContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("train cancelled at the install hook: err = %v, want context.Canceled", err)
	}
}

// TestAbortedTrainLeavesLastTrainUntouched: a drift fallback whose full
// rebuild is then cancelled installed nothing, so LastTrain must keep
// describing the epoch that is serving. The drift decision itself did happen
// and stays counted.
func TestAbortedTrainLeavesLastTrainUntouched(t *testing.T) {
	c := testClient(t)
	opts := smallRepoOptions()
	opts.Incremental.DriftThreshold = 1e-9
	opts.Incremental.ReassignThreshold = -1
	r, err := NewRepository("inc-abort-drift", opts)
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 4, 2)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	before, epoch, fallbacks := r.LastTrain(), r.Epoch(), r.met.driftFallbacks.Value()
	for i := 0; i < 10; i++ {
		putObject(t, c, r, testObject(7, i)) // a class the codebook never saw
	}
	abortTrain(t, r)
	if got := r.LastTrain(); got != before {
		t.Errorf("aborted train rewrote LastTrain: %+v, want the installed %+v", got, before)
	}
	if got := r.Epoch(); got != epoch {
		t.Errorf("aborted train moved the epoch to %d, want %d", got, epoch)
	}
	if got := r.met.driftFallbacks.Value(); got != fallbacks+1 {
		t.Errorf("repo_train_drift_fallback_total = %d, want %d", got, fallbacks+1)
	}
	// The retry sees the same delta, falls back again and this time installs.
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if info := r.LastTrain(); info.Mode != "full" || !info.DriftFallback || info.Epoch != epoch+1 {
		t.Errorf("retry after the abort = %+v, want a drift-fallback full train installing epoch %d", info, epoch+1)
	}
}

// TestAbortedTrainReturnsTakenIDs: Train takes deltaIDs aside when it plans;
// a run that does not install must hand them back, or the next Train would
// work from an empty delta. Each mode is checked against a twin repository
// given the same writes and no aborted run.
func TestAbortedTrainReturnsTakenIDs(t *testing.T) {
	c := testClient(t)
	pair := func(t *testing.T, id string) (aborted, twin *Repository) {
		t.Helper()
		var err error
		if aborted, err = NewRepository(id, smallRepoOptions()); err != nil {
			t.Fatal(err)
		}
		if twin, err = NewRepository(id+"-twin", smallRepoOptions()); err != nil {
			t.Fatal(err)
		}
		return aborted, twin
	}
	// abortThenTrain aborts one Train on the first repository, checks the
	// taken-aside ids came back, then trains both.
	abortThenTrain := func(t *testing.T, aborted, twin *Repository) {
		t.Helper()
		abortTrain(t, aborted)
		if got, want := len(aborted.deltaIDs), len(twin.deltaIDs); got != want {
			t.Fatalf("deltaIDs after the aborted train holds %d ids, want %d", got, want)
		}
		putObject(t, c, aborted, testObject(2, 50)) // a write after the abort joins them
		putObject(t, c, twin, testObject(2, 50))
		if err := aborted.Train(); err != nil {
			t.Fatal(err)
		}
		if err := twin.Train(); err != nil {
			t.Fatal(err)
		}
		if got, want := *aborted.LastTrain(), *twin.LastTrain(); got != want {
			t.Fatalf("train after the abort = %+v, twin %+v", got, want)
		}
		for cls := 0; cls < 3; cls++ {
			requireSameHits(t, c, aborted, twin, testObject(cls, 77))
		}
	}

	t.Run("incremental", func(t *testing.T) {
		aborted, twin := pair(t, "abort-inc")
		for _, r := range []*Repository{aborted, twin} {
			fillRepo(t, c, r, 4, 3)
			if err := r.Train(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				putObject(t, c, r, testObject(1, 100+i))
			}
			if err := r.Remove("obj-c0-0"); err != nil {
				t.Fatal(err)
			}
		}
		abortThenTrain(t, aborted, twin)
		if info := aborted.LastTrain(); info.Mode != "incremental" || info.DeltaDocs != 7 {
			t.Errorf("LastTrain = %+v, want incremental over 7 docs (5 new, 1 removed, 1 late)", info)
		}
	})

	// A modality with data but no codebook forces the full path; losing the
	// ids would let the retry refine from nothing and leave it without one.
	t.Run("full", func(t *testing.T) {
		aborted, twin := pair(t, "abort-full")
		for _, r := range []*Repository{aborted, twin} {
			putObject(t, c, r, &Object{ID: "t1", Owner: "u", Text: "text only corpus"})
			if err := r.Train(); err != nil {
				t.Fatal(err)
			}
			fillRepo(t, c, r, 3, 3) // images arrive
		}
		abortThenTrain(t, aborted, twin)
		if info := aborted.LastTrain(); info.Mode != "full" {
			t.Errorf("LastTrain = %+v, want full", info)
		}
		if aborted.VocabularySize() == 0 {
			t.Error("train after the abort built no image codebook")
		}
	})
}

// TestIncrementalSnapshotRoundTrip pins that a repository shaped by
// incremental training — refined vocabulary, multiple sealed segments, a
// non-empty memtable, tombstones — survives Snapshot/LoadRepository with its
// exact segment structure and ranking.
func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	c, r := buildTrainedRepo(t, "inc-snap")
	// Churn and retrain incrementally, then churn again so the memtable and
	// tombstone state are both non-trivial at snapshot time.
	for i := 0; i < 5; i++ {
		up, err := c.PrepareUpdate(testObject(1, 100+i), testDataKey(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Remove("obj-c0-0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if got := r.LastTrain().Mode; got != "incremental" {
		t.Fatalf("retrain mode = %q, want incremental", got)
	}
	if err := r.Update(textUpdate(t, c, "tail-1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("obj-c2-1"); err != nil {
		t.Fatal(err)
	}

	query := testObject(1, 77)
	before := searchIDs(t, c, r, query, 6)
	statsBefore := r.IndexStats()

	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.IsTrained() {
		t.Fatal("restored repository lost trained state")
	}
	if restored.Size() != r.Size() {
		t.Fatalf("restored %d objects, want %d", restored.Size(), r.Size())
	}
	after := searchIDs(t, c, restored, query, 6)
	if len(before) != len(after) {
		t.Fatalf("result counts differ: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("rank %d: %s != %s (restore must preserve segmented ranking)", i, after[i], before[i])
		}
	}
	// The segment structure itself round-trips (live docs per modality; the
	// dead-posting count may shrink since only live postings are serialized).
	statsAfter := restored.IndexStats()
	for mod, sb := range statsBefore {
		sa := statsAfter[mod]
		if sa.LiveDocs != sb.LiveDocs {
			t.Errorf("%s: restored %d live docs, want %d", mod, sa.LiveDocs, sb.LiveDocs)
		}
		if sb.SealedSegments > 0 && sa.SealedSegments == 0 {
			t.Errorf("%s: segmented layout collapsed on restore (%+v -> %+v)", mod, sb, sa)
		}
	}
	// The restored repository keeps working incrementally.
	if err := restored.Update(textUpdate(t, c, "post-restore", 3)); err != nil {
		t.Fatal(err)
	}
	if err := restored.Train(); err != nil {
		t.Fatal(err)
	}
	if got := restored.LastTrain().Mode; got != "incremental" {
		t.Errorf("post-restore train mode = %q, want incremental", got)
	}
}

// TestCompactionMergesSegmentsAndDropsGarbage: repeated churn+train cycles
// accumulate sealed segments and tombstones; compaction folds them into one
// segment with zero dead postings, without changing a single ranking.
func TestCompactionMergesSegmentsAndDropsGarbage(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("inc-compact", textOnlyIncrementalOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := r.Update(textUpdate(t, c, fmt.Sprintf("d-%d", i), i%5+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("d-%d", (round*4+i)%8)
			if err := r.Update(textUpdate(t, c, id, (round+i)%5+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Train(); err != nil {
			t.Fatal(err)
		}
		if got := r.LastTrain().Mode; got != "incremental" {
			t.Fatalf("round %d mode = %q", round, got)
		}
	}
	q, err := c.PrepareQuery(&Object{ID: "q", Text: "oceanwave"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	before, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	r.CompactNow()
	stats := r.IndexStats()
	for mod, s := range stats {
		if s.SealedSegments > 1 {
			t.Errorf("%s: %d sealed segments after CompactNow, want <= 1", mod, s.SealedSegments)
		}
		if s.DeadDocs != 0 {
			t.Errorf("%s: %d dead docs after CompactNow, want 0", mod, s.DeadDocs)
		}
	}
	after, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("hit count changed across compaction: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i].ObjectID != after[i].ObjectID || math.Abs(before[i].Score-after[i].Score) > 1e-9 {
			t.Fatalf("rank %d changed across compaction: %+v vs %+v", i, before[i], after[i])
		}
	}
}

// TestConcurrentSearchUpdateDuringCompaction is the -race workout for the
// segment machinery behind a live repository: a background compaction is
// provably in flight (held at its start hook) while writers churn objects
// and searchers query; after release, the final state must match a
// sequential oracle exactly.
func TestConcurrentSearchUpdateDuringCompaction(t *testing.T) {
	c := testClient(t)
	opts := textOnlyIncrementalOptions()
	opts.Incremental.MemtableCap = 8
	r, err := NewRepository("compact-stress", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := r.Update(textUpdate(t, c, fmt.Sprintf("base-%d", i), i%5+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}

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

	// Writer scripts: disjoint id ranges, deterministic final state.
	const writers = 4
	const perWriter = 12
	type step struct {
		id string
		up *Update // nil means Remove
	}
	scripts := make([][]step, writers)
	final := map[string]*Update{}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := fmt.Sprintf("cw-%d-%d", w, i)
			up := textUpdate(t, c, id, (w+i)%5+1)
			if i%3 == 2 { // insert then remove
				scripts[w] = append(scripts[w], step{id: id, up: up}, step{id: id})
			} else {
				scripts[w] = append(scripts[w], step{id: id, up: up})
				final[id] = up
			}
		}
	}
	searchQ, err := c.PrepareQuery(&Object{ID: "sq", Text: "oceanwave"}, 10)
	if err != nil {
		t.Fatal(err)
	}

	var writerWg, searchWg sync.WaitGroup
	stop := make(chan struct{})
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
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(script []step) {
			defer writerWg.Done()
			for _, s := range script {
				if s.up == nil {
					if err := r.Remove(s.id); err != nil {
						t.Errorf("remove %s: %v", s.id, err)
						return
					}
				} else if err := r.Update(s.up); err != nil {
					t.Errorf("update %s: %v", s.id, err)
					return
				}
			}
		}(scripts[w])
	}
	// The tiny memtable guarantees seals during the churn; the first seal
	// fires the compactor, which parks at the hook with traffic still live.
	<-started
	writerWg.Wait()
	release()
	close(stop)
	searchWg.Wait()
	// Fold everything down deterministically, then compare to the oracle.
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	r.CompactNow()

	oracle, err := NewRepository("compact-oracle", textOnlyIncrementalOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := oracle.Update(textUpdate(t, c, fmt.Sprintf("base-%d", i), i%5+1)); err != nil {
			t.Fatal(err)
		}
	}
	for id, up := range final {
		if err := oracle.Update(up); err != nil {
			t.Fatalf("oracle update %s: %v", id, err)
		}
	}
	if err := oracle.Train(); err != nil {
		t.Fatal(err)
	}
	q, err := c.PrepareQuery(&Object{ID: "oq", Text: "oceanwave"}, 100)
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
		t.Fatalf("hits = %d, oracle = %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ObjectID != want[i].ObjectID {
			t.Fatalf("hit %d: got %s, oracle %s", i, got[i].ObjectID, want[i].ObjectID)
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("hit %d (%s): score %g, oracle %g", i, got[i].ObjectID, got[i].Score, want[i].Score)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
