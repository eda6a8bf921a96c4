package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate golden snapshot fixtures in testdata/")

// TestGoldenSnapshotCompatibility pins the snapshot format: testdata holds a
// trained repository snapshot written by an earlier build plus the ranked
// ids a fixed query returned against it. Today's LoadRepository must restore
// that exact repository — same object count, trained state, and ranking —
// or a format/determinism break has slipped in. Regenerate deliberately with
//
//	go test ./internal/core -run GoldenSnapshot -update
type goldenExpect struct {
	Objects    int      `json:"objects"`
	VocabWords int      `json:"vocab_words"`
	RankedIDs  []string `json:"ranked_ids"`
}

// buildSegmentedGoldenRepo shapes a repository through the incremental
// pipeline: full train, churn, incremental retrain, more churn — so its
// snapshot carries multiple sealed segments, a live memtable and tombstones.
func buildSegmentedGoldenRepo(t *testing.T) (*Client, *Repository) {
	t.Helper()
	c, r := buildTrainedRepo(t, "golden-seg")
	for i := 0; i < 4; i++ {
		up, err := c.PrepareUpdate(testObject(1, 200+i), testDataKey(6))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Remove("obj-c0-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if got := r.LastTrain().Mode; got != "incremental" {
		t.Fatalf("golden fixture retrain mode = %q, want incremental", got)
	}
	up, err := c.PrepareUpdate(testObject(2, 300), testDataKey(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("obj-c2-0"); err != nil {
		t.Fatal(err)
	}
	return c, r
}

// TestGoldenSegmentedSnapshotCompatibility pins the segmented snapshot
// layout (the IndexSegments field): testdata holds a snapshot written after
// an incremental train, and today's LoadRepository must restore the exact
// segment structure and ranking. The companion TestGoldenSnapshotCompatibility
// fixture predates segmentation, so it keeps the legacy rebuild path honest.
func TestGoldenSegmentedSnapshotCompatibility(t *testing.T) {
	snapPath := filepath.Join("testdata", "golden-segmented.snap")
	expectPath := filepath.Join("testdata", "golden-segmented.json")
	c := testClient(t)
	query := testObject(1, 77)

	if *updateGolden {
		_, r := buildSegmentedGoldenRepo(t)
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
		exp := goldenExpect{
			Objects:    r.Size(),
			VocabWords: r.VocabularySize(),
			RankedIDs:  searchIDs(t, c, r, query, 6),
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
	var want goldenExpect
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
		t.Fatalf("golden segmented snapshot no longer loads: %v", err)
	}
	if !r.IsTrained() {
		t.Fatal("golden segmented snapshot restored untrained")
	}
	if r.Size() != want.Objects {
		t.Errorf("restored %d objects, want %d", r.Size(), want.Objects)
	}
	if r.VocabularySize() != want.VocabWords {
		t.Errorf("restored %d vocab words, want %d", r.VocabularySize(), want.VocabWords)
	}
	// The fixture was written with sealed segments; restoring must keep the
	// segmented layout rather than collapsing into a monolithic rebuild.
	segmented := false
	for _, s := range r.IndexStats() {
		if s.SealedSegments > 1 || (s.SealedSegments >= 1 && s.MemtableDocs > 0) {
			segmented = true
		}
	}
	if !segmented {
		t.Error("restored repository shows no segment structure")
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
}

func TestGoldenSnapshotCompatibility(t *testing.T) {
	snapPath := filepath.Join("testdata", "golden-repo.snap")
	expectPath := filepath.Join("testdata", "golden-search.json")
	c := testClient(t)
	query := testObject(1, 77)

	if *updateGolden {
		_, r := buildTrainedRepo(t, "golden")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		exp := goldenExpect{
			Objects:    r.Size(),
			VocabWords: r.VocabularySize(),
			RankedIDs:  searchIDs(t, c, r, query, 6),
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
	var want goldenExpect
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
		t.Fatalf("golden snapshot no longer loads: %v", err)
	}
	if !r.IsTrained() {
		t.Fatal("golden snapshot restored untrained")
	}
	if r.Size() != want.Objects {
		t.Errorf("restored %d objects, want %d", r.Size(), want.Objects)
	}
	if r.VocabularySize() != want.VocabWords {
		t.Errorf("restored %d vocab words, want %d", r.VocabularySize(), want.VocabWords)
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
}
