package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"mie/internal/cluster"
	"mie/internal/dpe"
	"mie/internal/obs"
	"mie/internal/vec"
)

// annRepoOptions routes every dense linear scan through the candidate index
// (MinCorpus 1) with an exhaustive probe budget (Probes = 2^Bits), the
// setting where the ANN ranking is provably identical to the exact scan.
func annRepoOptions() RepositoryOptions {
	opts := smallRepoOptions()
	opts.ANN = ANNOptions{Tables: 2, Bits: 6, Probes: 1 << 6, MinCorpus: 1}
	return opts
}

// TestANNExhaustiveParity pins the correctness contract of the ANN path:
// with an exhaustive probe budget the candidate set covers every live code,
// the per-object minimum distances match the exact scan's, and the float
// accumulation runs in the same order — so an untrained repository routed
// through ANN returns byte-identical hits (ids AND scores) to one with ANN
// disabled.
func TestANNExhaustiveParity(t *testing.T) {
	c := testClient(t)
	optsANN := annRepoOptions()
	optsExact := smallRepoOptions()
	optsExact.ANN.Disable = true
	ra, err := NewRepository("parity-ann", optsANN)
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewRepository("parity-exact", optsExact)
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, ra, 6, 3)
	fillRepo(t, c, re, 6, 3)

	for _, query := range []*Object{
		{Image: classImage(0, 500)},
		{Image: classImage(1, 501)},
		{Image: classImage(2, 502)},
		testObject(1, 503), // text + image, exercising fusion over the ANN list
	} {
		requireSameHits(t, c, ra, re, query)
	}
	if ra.met.annProbes.Value() == 0 {
		t.Error("ANN repository never probed its candidate index — searches took the exact path")
	}
	if re.met.annProbes.Value() != 0 {
		t.Error("disabled-ANN repository probed a candidate index")
	}
}

// requireSameHits fails unless the ANN-routed repository and its exact twin
// answer the query with the same objects at the same scores, and with some.
func requireSameHits(t *testing.T, c *Client, ann, exact *Repository, query *Object) {
	t.Helper()
	q, err := c.PrepareQuery(query, 8)
	if err != nil {
		t.Fatal(err)
	}
	hitsANN, err := ann.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	hitsExact, err := exact.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hitsANN) == 0 || len(hitsANN) != len(hitsExact) {
		t.Fatalf("ANN returned %d hits, exact %d", len(hitsANN), len(hitsExact))
	}
	for i := range hitsANN {
		if hitsANN[i].ObjectID != hitsExact[i].ObjectID || hitsANN[i].Score != hitsExact[i].Score {
			t.Fatalf("rank %d diverges: ANN (%s, %v) vs exact (%s, %v)",
				i, hitsANN[i].ObjectID, hitsANN[i].Score, hitsExact[i].ObjectID, hitsExact[i].Score)
		}
	}
}

// putObject encodes obj and stores it.
func putObject(t *testing.T, c *Client, r *Repository, obj *Object) {
	t.Helper()
	up, err := c.PrepareUpdate(obj, testDataKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
}

// liveHeap returns the bytes of heap objects that survive a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestANNMaintenanceFollowsMutations: updates, replacements and removes keep
// the candidate index in step with the store, so ANN-routed searches
// never surface a removed object and always see a replaced one.
func TestANNMaintenanceFollowsMutations(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("ann-maint", annRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 4, 2)
	if got := r.met.annCodes.Value(); got == 0 {
		t.Fatal("candidate index empty after updates")
	}
	before := r.met.annCodes.Value()
	// Replace: code count must not grow.
	up, err := c.PrepareUpdate(testObject(0, 1), testDataKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
	if got := r.met.annCodes.Value(); got != before {
		t.Errorf("replace changed live codes %d -> %d", before, got)
	}
	// Remove: the object must vanish from ANN-routed results.
	if err := r.Remove("obj-c0-1"); err != nil {
		t.Fatal(err)
	}
	for _, id := range searchIDs(t, c, r, &Object{Image: classImage(0, 990)}, 8) {
		if id == "obj-c0-1" {
			t.Fatal("removed object surfaced through the candidate index")
		}
	}
	if got := r.met.annCodes.Value(); got >= before {
		t.Errorf("remove did not shrink live codes: %d -> %d", before, got)
	}
}

// annEntries counts the candidate indexes the repository holds.
func annEntries(r *Repository) int {
	n := 0
	for i := range r.ann {
		if r.ann[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestANNLifecycle walks one repository through the states a candidate index
// lives and dies in: it exists exactly while its modality has no codebook
// for the inverted index to answer from. Each row advances the repository
// and names what must hold afterwards.
func TestANNLifecycle(t *testing.T) {
	c := testClient(t)
	opts := annRepoOptions()
	opts.Modalities = []Modality{ModalityText, ModalityImage}
	r, err := NewRepository("ann-life", opts)
	if err != nil {
		t.Fatal(err)
	}
	builds := obs.Default().Histogram(obs.L("phase_seconds", "phase", "repo/ann_build"))
	train := func(t *testing.T, r *Repository, mode string) {
		t.Helper()
		if err := r.Train(); err != nil {
			t.Fatal(err)
		}
		if got := r.LastTrain().Mode; got != mode {
			t.Fatalf("train ran %s, want %s", got, mode)
		}
	}
	imageQuery := &Object{Image: classImage(1, 640)}
	for _, row := range []struct {
		name     string
		step     func(t *testing.T)
		entries  int  // candidate indexes that exist afterwards
		mirrored bool // repo_ann_codes > 0 afterwards
		probed   bool // an image search afterwards goes through a candidate index
	}{
		{name: "new repository", step: func(*testing.T) {}, entries: 1},
		{name: "untrained updates are mirrored", step: func(t *testing.T) { fillRepo(t, c, r, 4, 3) },
			entries: 1, mirrored: true, probed: true},
		{name: "the full train releases the index", step: func(t *testing.T) { train(t, r, "full") }},
		{name: "trained overwrites, inserts and removes mirror nothing", step: func(t *testing.T) {
			var ups []*Update // the objects fillRepo stored, encoded once
			for i := 0; i < 12; i++ {
				up, err := c.PrepareUpdate(testObject(i%3, i/3), testDataKey(3))
				if err != nil {
					t.Fatal(err)
				}
				ups = append(ups, up)
			}
			before := r.ResidentBytes()
			for i := 0; i < 5000; i++ {
				if err := r.Update(ups[i%len(ups)]); err != nil {
					t.Fatal(err)
				}
			}
			if got := r.ResidentBytes(); got != before {
				t.Errorf("ResidentBytes %d -> %d over overwrites of existing ids", before, got)
			}
			putObject(t, c, r, testObject(0, 9))
			if err := r.Remove("obj-c0-9"); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "an incremental train has nothing to release", step: func(t *testing.T) { train(t, r, "incremental") }},
		{name: "a trained snapshot restores without building one", step: func(t *testing.T) {
			var buf bytes.Buffer
			if err := r.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			before := builds.Count()
			if r, err = LoadRepository(&buf); err != nil {
				t.Fatal(err)
			}
			if got := builds.Count(); got != before {
				t.Errorf("restoring a trained snapshot recorded %d repo/ann_build spans", got-before)
			}
			putObject(t, c, r, testObject(2, 9)) // what WAL replay does next
		}},
	} {
		row.step(t)
		if got := annEntries(r); got != row.entries {
			t.Fatalf("%s: %d candidate indexes, want %d", row.name, got, row.entries)
		}
		if got := r.met.annCodes.Value(); (got > 0) != row.mirrored {
			t.Fatalf("%s: repo_ann_codes = %d, want > 0: %v", row.name, got, row.mirrored)
		}
		probes := r.met.annProbes.Value()
		hits := searchIDs(t, c, r, imageQuery, 5)
		if r.Size() > 0 && len(hits) == 0 {
			t.Fatalf("%s: image search found nothing", row.name)
		}
		if got := r.met.annProbes.Value() > probes; got != row.probed {
			t.Fatalf("%s: image search probed a candidate index: %v, want %v", row.name, got, row.probed)
		}
	}
}

// TestANNOutlivesTrainForAModalityWithoutCodebook: the lifecycle rule is per
// modality. A repository trained while it held only text has no image
// codebook, so images that arrive afterwards are still searched through the
// candidate index — ranking exactly as a twin with ANN disabled ranks them
// through the exact scan — until the full Train that clusters them.
func TestANNOutlivesTrainForAModalityWithoutCodebook(t *testing.T) {
	c := testClient(t)
	optsANN := annRepoOptions()
	optsANN.Modalities = []Modality{ModalityText, ModalityImage}
	optsExact := optsANN
	optsExact.ANN = ANNOptions{Disable: true}
	ra, err := NewRepository("late-images-ann", optsANN)
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewRepository("late-images-exact", optsExact)
	if err != nil {
		t.Fatal(err)
	}
	both := func(f func(r *Repository)) { f(ra); f(re) }
	both(func(r *Repository) {
		for cls := 0; cls < 3; cls++ {
			for i := 0; i < 3; i++ {
				obj := testObject(cls, 100+i)
				obj.Image = nil
				putObject(t, c, r, obj)
			}
		}
		if err := r.Train(); err != nil {
			t.Fatal(err)
		}
		if !r.IsTrained() || r.VocabularySize() != 0 {
			t.Fatalf("trained on text alone: trained=%v, %d visual words", r.IsTrained(), r.VocabularySize())
		}
		fillRepo(t, c, r, 4, 3)
	})
	if annEntries(ra) != 1 || ra.met.annCodes.Value() == 0 {
		t.Fatalf("image modality has no codebook yet: %d candidate indexes holding %d codes, want 1 holding the images' codes",
			annEntries(ra), ra.met.annCodes.Value())
	}
	for _, query := range []*Object{{Image: classImage(0, 500)}, {Image: classImage(2, 501)}, testObject(1, 502)} {
		requireSameHits(t, c, ra, re, query)
	}
	if ra.met.annProbes.Value() == 0 {
		t.Error("image searches on the trained repository never probed the candidate index")
	}
	// Images without a codebook cannot be refined into one: the next Train is
	// a full one, and its install releases the index.
	if err := ra.Train(); err != nil {
		t.Fatal(err)
	}
	if got := ra.LastTrain().Mode; got != "full" {
		t.Fatalf("train ran %s, want full", got)
	}
	if annEntries(ra) != 0 || ra.met.annCodes.Value() != 0 || ra.VocabularySize() == 0 {
		t.Fatalf("after the train that clustered the images: %d candidate indexes, %d codes, %d visual words",
			annEntries(ra), ra.met.annCodes.Value(), ra.VocabularySize())
	}
}

// spineShapeUpdates draws n updates at the benchmark spine's object shape: a
// 10 KB ciphertext, a few text tokens and 29 image codes of 2048 bits (random
// ones: nothing here depends on their geometry).
func spineShapeUpdates(rng *rand.Rand, n int) []*Update {
	const codes, nbits = 29, 2048
	ups := make([]*Update, n)
	for i := range ups {
		up := &Update{ObjectID: fmt.Sprintf("spine-%03d", i), Owner: "u", Ciphertext: make([]byte, 10<<10),
			TextTokens: map[dpe.Token]uint64{{byte(i), byte(i >> 8)}: 1, {0xff, byte(i % 5)}: 2}}
		rng.Read(up.Ciphertext)
		for j := 0; j < codes; j++ {
			v := vec.NewBitVec(nbits)
			for w := 0; w < nbits/64; w++ {
				v.SetWord(w, rng.Uint64())
			}
			up.ImageEncodings = append(up.ImageEncodings, v)
		}
		ups[i] = up
	}
	return ups
}

// TestTrainedOverwritesDoNotGrowTheHeap holds a trained repository at the
// benchmark's object shape (29 codes of 2048 bits) under overwrite churn:
// each code is stored once, so replacing objects with equals leaves the live
// heap where it was. (With every code mirrored into a candidate index nobody
// compacted, each overwrite left 7.4 KB behind.)
func TestTrainedOverwritesDoNotGrowTheHeap(t *testing.T) {
	const objects, overwrites = 48, 5000
	ups := spineShapeUpdates(rand.New(rand.NewSource(5)), objects)
	r, err := NewRepository("ann-heap", RepositoryOptions{
		Modalities: []Modality{ModalityText, ModalityImage},
		Vocab:      cluster.VocabParams{Words: 20, Tree: cluster.TreeParams{Branch: 3, Height: 2, Seed: 1}, Seed: 1, MaxIter: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	for _, up := range ups {
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		r.CompactNow() // the inverted indexes' own garbage is not what is measured
		return int64(liveHeap())
	}
	resident, before := r.ResidentBytes(), heap()
	for i := 0; i < overwrites; i++ {
		if err := r.Update(ups[i%objects]); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.ResidentBytes(); got != resident {
		t.Errorf("ResidentBytes %d -> %d over %d overwrites", resident, got, overwrites)
	}
	// A mirrored copy would add overwrites × 29 codes × 256 bytes = 37 MB.
	const bound = 8 << 20
	grown := heap() - before
	t.Logf("live heap moved by %d bytes over %d overwrites", grown, overwrites)
	if grown > bound {
		t.Errorf("live heap grew by %d bytes over %d overwrites of existing objects, want <= %d", grown, overwrites, bound)
	}
}

// TestANNSearchDuringTrainAndChurn races ANN-routed searches against
// training and update/remove churn, under -race. The first Train's install
// releases the image modality's candidate index while searches that loaded
// the untrained epoch may still be probing it; searching and churning carry
// on across that install and the incremental ones after it.
func TestANNSearchDuringTrainAndChurn(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("ann-stress", annRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 5, 3)
	q, err := c.PrepareQuery(&Object{Image: classImage(1, 700)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // churn: replace and remove/re-add objects
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := i % 5
			if i%3 == 0 {
				_ = r.Remove(fmt.Sprintf("obj-c%d-%d", i%3, id))
				continue
			}
			up, err := c.PrepareUpdate(testObject(i%3, id), testDataKey(3))
			if err == nil {
				_ = r.Update(up)
			}
		}
	}()
	trained := make(chan struct{})
	wg.Add(1)
	go func() { // trains: full (releasing the index), then incremental
		defer wg.Done()
		defer close(trained)
		for i := 0; i < 3; i++ {
			if err := r.Train(); err != nil {
				t.Errorf("train: %v", err)
				return
			}
		}
	}()
	for i, done := 0, false; i < 200 || !done; i++ {
		if _, err := r.Search(q); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		select {
		case <-trained:
			done = true
		default:
		}
	}
	close(stop)
	wg.Wait()
	for i, eng := range r.state.Load().engines {
		if eng.Modality() == ModalityImage && r.ann[i].Load() != nil {
			t.Error("the image modality kept its candidate index through three trains")
		}
	}
}

// annGoldenExpect pins the ANN-routed ranking a fixed pre-training query
// returned when the golden fixture was written.
type annGoldenExpect struct {
	Objects   int      `json:"objects"`
	ANNCodes  int      `json:"ann_codes"`
	RankedIDs []string `json:"ranked_ids"`
}

// TestGoldenANNRestore pins that a restored repository rebuilds its ANN
// candidate indexes deterministically: testdata holds an untrained snapshot
// written with ANN routing active plus the ranked ids its fixed query
// returned; today's LoadRepository must reproduce that exact ranking through
// the rebuilt index. Regenerate deliberately with
//
//	go test ./internal/core -run GoldenANNRestore -update
func TestGoldenANNRestore(t *testing.T) {
	snapPath := filepath.Join("testdata", "golden-ann.snap")
	expectPath := filepath.Join("testdata", "golden-ann.json")
	c := testClient(t)
	query := &Object{Image: classImage(1, 77)}

	if *updateGolden {
		r, err := NewRepository("golden-ann", annRepoOptions())
		if err != nil {
			t.Fatal(err)
		}
		fillRepo(t, c, r, 4, 3)
		f, err := os.Create(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Snapshot(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		exp := annGoldenExpect{
			Objects:   r.Size(),
			ANNCodes:  int(r.met.annCodes.Value()),
			RankedIDs: searchIDs(t, c, r, query, 6),
		}
		blob, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expectPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s and %s", snapPath, expectPath)
	}

	blob, err := os.ReadFile(expectPath)
	if err != nil {
		t.Fatalf("read golden expectations (run with -update to regenerate): %v", err)
	}
	var want annGoldenExpect
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatalf("open golden snapshot (run with -update to regenerate): %v", err)
	}
	defer func() { _ = f.Close() }()
	r, err := LoadRepository(f)
	if err != nil {
		t.Fatalf("golden ANN snapshot no longer loads: %v", err)
	}
	if r.IsTrained() {
		t.Fatal("golden ANN fixture restored trained; it must exercise the pre-training ANN path")
	}
	if r.Size() != want.Objects {
		t.Errorf("restored %d objects, want %d", r.Size(), want.Objects)
	}
	if got := int(r.met.annCodes.Value()); got != want.ANNCodes {
		t.Errorf("rebuilt candidate index holds %d codes, want %d", got, want.ANNCodes)
	}
	got := searchIDs(t, c, r, query, 6)
	if len(got) != len(want.RankedIDs) {
		t.Fatalf("search returned %v, want %v", got, want.RankedIDs)
	}
	for i := range got {
		if got[i] != want.RankedIDs[i] {
			t.Fatalf("rank %d: %s, want %s (full: %v vs %v)", i, got[i], want.RankedIDs[i], got, want.RankedIDs)
		}
	}
	if r.met.annProbes.Value() == 0 {
		t.Error("restored repository did not route the query through the rebuilt candidate index")
	}
}

// TestANNSnapshotRoundTripUntrained: a snapshot/restore cycle of an
// ANN-routed repository preserves search results exactly (the non-golden
// half of the restore guarantee).
func TestANNSnapshotRoundTripUntrained(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("ann-snap", annRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 5, 3)
	query := &Object{Image: classImage(2, 88)}
	before := searchIDs(t, c, r, query, 6)

	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	after := searchIDs(t, c, restored, query, 6)
	if len(before) != len(after) {
		t.Fatalf("before %v, after %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rank %d: %s before, %s after restore", i, before[i], after[i])
		}
	}
}
