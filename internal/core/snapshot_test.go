package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildTrainedRepo creates a trained repository with multimodal content.
func buildTrainedRepo(t *testing.T, id string) (*Client, *Repository) {
	t.Helper()
	c := testClient(t)
	r, err := NewRepository(id, smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 4, 3)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	return c, r
}

// searchIDs runs a query and returns the ordered result ids.
func searchIDs(t *testing.T, c *Client, r *Repository, obj *Object, k int) []string {
	t.Helper()
	q, err := c.PrepareQuery(obj, k)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(hits))
	for i, h := range hits {
		ids[i] = h.ObjectID
	}
	return ids
}

func TestSnapshotRoundTrip(t *testing.T) {
	c, r := buildTrainedRepo(t, "snap1")
	query := testObject(1, 77)
	before := searchIDs(t, c, r, query, 6)

	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.ID() != "snap1" {
		t.Errorf("restored id = %q", restored.ID())
	}
	if restored.Size() != r.Size() {
		t.Errorf("restored size %d != %d", restored.Size(), r.Size())
	}
	if !restored.IsTrained() {
		t.Fatal("restored repository lost trained state")
	}
	if restored.VocabularySize() != r.VocabularySize() {
		t.Errorf("vocabulary size %d != %d", restored.VocabularySize(), r.VocabularySize())
	}
	after := searchIDs(t, c, restored, query, 6)
	if len(before) != len(after) {
		t.Fatalf("result counts differ: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("result %d: %s != %s (restore must preserve ranking)", i, before[i], after[i])
		}
	}
	// Restored repository stays writable and searchable dynamically.
	up, err := c.PrepareUpdate(&Object{ID: "post-restore", Owner: "u", Text: "quokka island wildlife"}, testDataKey(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Update(up); err != nil {
		t.Fatal(err)
	}
	got := searchIDs(t, c, restored, &Object{ID: "q", Text: "quokka"}, 2)
	if len(got) == 0 || got[0] != "post-restore" {
		t.Errorf("post-restore update not searchable: %v", got)
	}
}

func TestSnapshotUntrainedRepo(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("snap-untrained", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 2, 2)
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.IsTrained() {
		t.Error("untrained snapshot restored as trained")
	}
	if restored.Size() != 4 {
		t.Errorf("size = %d", restored.Size())
	}
	// Linear search still works, then training works post-restore.
	if got := searchIDs(t, c, restored, testObject(0, 9), 2); len(got) == 0 {
		t.Error("linear search on restored repo found nothing")
	}
	if err := restored.Train(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRepositoryRejectsGarbage(t *testing.T) {
	if _, err := LoadRepository(bytes.NewReader([]byte("not a snapshot"))); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("err = %v, want ErrBadSnapshot", err)
	}
	// Valid gob of the wrong shape must also fail cleanly.
	if _, err := LoadRepository(bytes.NewReader([]byte{})); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("empty: err = %v, want ErrBadSnapshot", err)
	}
}

func TestLoadRepositoryRejectsTruncated(t *testing.T) {
	_, r := buildTrainedRepo(t, "snap-trunc")
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadRepository(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot loaded without error")
	}
}

func TestSaveLoadService(t *testing.T) {
	dir := t.TempDir()
	svc := openMem(t)
	c := testClient(t)
	for _, id := range []string{"alpha", "beta/with:odd chars"} {
		repo, err := svc.CreateRepository(id, smallRepoOptions())
		if err != nil {
			t.Fatal(err)
		}
		up, err := c.PrepareUpdate(&Object{ID: "o1", Owner: "u", Text: "persistent content " + id}, testDataKey(8))
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveService(svc, dir); err != nil {
		t.Fatal(err)
	}

	loaded, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Repositories(); len(got) != 2 {
		t.Fatalf("loaded %d repositories: %v", len(got), got)
	}
	repo, err := loaded.Repository("beta/with:odd chars")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := repo.Get("o1"); err != nil {
		t.Errorf("restored object missing: %v", err)
	}
}

func TestSaveServiceOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	svc := openMem(t)
	c := testClient(t)
	repo, err := svc.CreateRepository("r", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	up, err := c.PrepareUpdate(&Object{ID: "v1", Owner: "u", Text: "first version"}, testDataKey(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(up); err != nil {
		t.Fatal(err)
	}
	if err := SaveService(svc, dir); err != nil {
		t.Fatal(err)
	}
	up2, err := c.PrepareUpdate(&Object{ID: "v2", Owner: "u", Text: "second version"}, testDataKey(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(up2); err != nil {
		t.Fatal(err)
	}
	if err := SaveService(svc, dir); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := loaded.Repository("r")
	if err != nil {
		t.Fatal(err)
	}
	if lr.Size() != 2 {
		t.Errorf("size = %d, want 2", lr.Size())
	}
	// No stray temp files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".snap-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadServicePartialFailure(t *testing.T) {
	dir := t.TempDir()
	svc := openMem(t)
	c := testClient(t)
	repo, err := svc.CreateRepository("good", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	up, err := c.PrepareUpdate(&Object{ID: "o", Owner: "u", Text: "survives"}, testDataKey(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(up); err != nil {
		t.Fatal(err)
	}
	if err := SaveService(svc, dir); err != nil {
		t.Fatal(err)
	}
	// Inject a corrupt snapshot alongside the good one.
	if err := os.WriteFile(filepath.Join(dir, "corrupt.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := OpenService(ServiceOptions{Dir: dir})
	if err == nil {
		t.Error("expected an aggregate error for the corrupt snapshot")
	}
	if got := loaded.Repositories(); len(got) != 1 || got[0] != "good" {
		t.Errorf("partial load = %v, want just [good]", got)
	}
}

func TestLoadServiceFreshDirectory(t *testing.T) {
	svc, report, err := OpenService(ServiceOptions{Dir: filepath.Join(t.TempDir(), "does-not-exist")})
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Repositories()) != 0 {
		t.Error("fresh service not empty")
	}
	if report.Repositories != 0 || report.ReplayedRecords != 0 {
		t.Errorf("fresh directory reported recovery work: %+v", report)
	}
	// The fresh service is durable: a repository created now survives.
	if _, err := svc.CreateRepository("born-fresh", RepositoryOptions{}); err != nil {
		t.Fatal(err)
	}
}
