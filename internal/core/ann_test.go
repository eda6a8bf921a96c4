package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// annRepoOptions routes every dense linear scan through the candidate index
// (MinCorpus 1) with an exhaustive probe budget (Probes = 2^Bits), the
// setting where the ANN ranking is provably identical to the exact scan.
func annRepoOptions(dir string) RepositoryOptions {
	opts := smallRepoOptions(dir)
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
	optsANN := annRepoOptions(t.TempDir())
	optsExact := smallRepoOptions(t.TempDir())
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
		q, err := c.PrepareQuery(query, 8)
		if err != nil {
			t.Fatal(err)
		}
		hitsANN, err := ra.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		hitsExact, err := re.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(hitsANN) != len(hitsExact) {
			t.Fatalf("ANN returned %d hits, exact %d", len(hitsANN), len(hitsExact))
		}
		for i := range hitsANN {
			if hitsANN[i].ObjectID != hitsExact[i].ObjectID || hitsANN[i].Score != hitsExact[i].Score {
				t.Fatalf("rank %d diverges: ANN (%s, %v) vs exact (%s, %v)",
					i, hitsANN[i].ObjectID, hitsANN[i].Score, hitsExact[i].ObjectID, hitsExact[i].Score)
			}
		}
	}
	if ra.met.annProbes.Value() == 0 {
		t.Error("ANN repository never probed its candidate index — searches took the exact path")
	}
	if re.met.annProbes.Value() != 0 {
		t.Error("disabled-ANN repository probed a candidate index")
	}
}

// TestANNMaintenanceFollowsMutations: updates, replacements and removes keep
// the candidate index in step with the store, so ANN-routed searches
// never surface a removed object and always see a replaced one.
func TestANNMaintenanceFollowsMutations(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("ann-maint", annRepoOptions(t.TempDir()))
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

// TestANNSearchDuringTrainAndChurn races ANN-routed searches against
// training (which compacts the candidate indexes) and update/remove churn,
// under -race.
func TestANNSearchDuringTrainAndChurn(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("ann-stress", annRepoOptions(t.TempDir()))
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
	wg.Add(1)
	go func() { // trains: full then incremental, compacting the ANN set
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := r.Train(); err != nil {
				t.Errorf("train: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := r.Search(q); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
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
		r, err := NewRepository("golden-ann", annRepoOptions(t.TempDir()))
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
	r, err := LoadRepository(f, nil)
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
	r, err := NewRepository("ann-snap", annRepoOptions(t.TempDir()))
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
	restored, err := LoadRepository(&buf, nil)
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
