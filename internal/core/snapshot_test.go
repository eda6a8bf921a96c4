package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mie/internal/dpe"
	"mie/internal/index"
	"mie/internal/vec"
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
	if err := r.TrainContext(context.Background()); err != nil {
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
	hits, err := r.SearchContext(context.Background(), q)
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
	if err := writeSnapshot(r, &buf); err != nil {
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
	if !restored.state.Load().trained {
		t.Fatal("restored repository lost trained state")
	}
	if restored.codebookSize(ModalityImage) != r.codebookSize(ModalityImage) {
		t.Errorf("vocabulary size %d != %d", restored.codebookSize(ModalityImage), r.codebookSize(ModalityImage))
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
	if err := restored.UpdateContext(context.Background(), up); err != nil {
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
	if err := writeSnapshot(r, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.state.Load().trained {
		t.Error("untrained snapshot restored as trained")
	}
	if restored.Size() != 4 {
		t.Errorf("size = %d", restored.Size())
	}
	// Linear search still works, then training works post-restore.
	if got := searchIDs(t, c, restored, testObject(0, 9), 2); len(got) == 0 {
		t.Error("linear search on restored repo found nothing")
	}
	if err := restored.TrainContext(context.Background()); err != nil {
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

// TestLoadRepositoryRefusesWhatUpdateRefuses: each snapshot object is held to
// the checks Update makes before it logs, and every posting needs a document
// id, so a snapshot holding what no write could have stored fails with
// ErrBadSnapshot. The first two rows used to load and leave a repository no
// Train could succeed on ("index: empty DocID", "encoding 1 has 128 bits,
// want 64").
func TestLoadRepositoryRefusesWhatUpdateRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := func(bits int) []vec.BitVec {
		return []vec.BitVec{randomCode(rng, bits), randomCode(rng, bits), randomCode(rng, bits)}
	}
	image := func(trained bool) []byte {
		t.Helper()
		r, err := NewRepository("restore", smallRepoOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			up := &Update{ObjectID: fmt.Sprintf("o%02d", i), Owner: "u", TextTokens: map[dpe.Token]uint64{{byte(i)}: 1}, ImageEncodings: codes(64)}
			if err := r.UpdateContext(context.Background(), up); err != nil {
				t.Fatal(err)
			}
		}
		if trained {
			if err := r.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := writeSnapshot(r, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	images := map[bool][]byte{false: image(false), true: image(true)}
	for trained, img := range images {
		r, err := LoadRepository(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("unedited snapshot (trained %v): %v", trained, err)
		}
		if err := r.TrainContext(context.Background()); err != nil {
			t.Fatalf("train after restoring the unedited snapshot (trained %v): %v", trained, err)
		}
	}
	for _, tc := range []struct {
		name    string
		trained bool
		edit    func(s *snapshot)
	}{
		{"untrained: an object without an id", false, func(s *snapshot) { s.Objects[1].ID = "" }},
		{"untrained: image codes of two lengths", false, func(s *snapshot) { s.Objects[1].ImageEncs = codes(128) }},
		{"untrained: one id stored twice", false, func(s *snapshot) { s.Objects[1].ID = s.Objects[0].ID }},
		{"trained: codes the codebook cannot compare", true, func(s *snapshot) { s.Objects[0].ImageEncs = codes(128) }},
		{"trained: a posting without a document id", true, func(s *snapshot) { s.IndexSegments[0][0][0].Doc = "" }},
		{"trained: a text term shorter than a token", true, func(s *snapshot) { s.IndexSegments[0][0][0].Terms["0a"] = 1 }},
		{"trained: a text term of 64 digits that are not hex", true, func(s *snapshot) {
			s.IndexSegments[0][0][0].Terms[index.Term(strings.Repeat("g", 64))] = 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var snap snapshot
			if err := gob.NewDecoder(bytes.NewReader(images[tc.trained])).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			tc.edit(&snap)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
				t.Fatal(err)
			}
			if r, err := LoadRepository(&buf); !errors.Is(err, ErrBadSnapshot) {
				size := -1
				if r != nil {
					size = r.Size()
				}
				t.Fatalf("err = %v (size %d), want ErrBadSnapshot", err, size)
			}
		})
	}
}

func TestLoadRepositoryRejectsTruncated(t *testing.T) {
	_, r := buildTrainedRepo(t, "snap-trunc")
	var buf bytes.Buffer
	if err := writeSnapshot(r, &buf); err != nil {
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
		if err := repo.UpdateContext(context.Background(), up); err != nil {
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
	if err := repo.UpdateContext(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	if err := SaveService(svc, dir); err != nil {
		t.Fatal(err)
	}
	up2, err := c.PrepareUpdate(&Object{ID: "v2", Owner: "u", Text: "second version"}, testDataKey(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.UpdateContext(context.Background(), up2); err != nil {
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
	if err := repo.UpdateContext(context.Background(), up); err != nil {
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

// TestSaveServiceRefusesForeignDir: a durable service saves only into its
// own data directory. Saving one elsewhere used to write the snapshots
// there and rotate the logs at home, so the next start at home lost every
// acknowledged write. An in-memory service still exports to any directory.
func TestSaveServiceRefusesForeignDir(t *testing.T) {
	c := testClient(t)
	home, foreign := t.TempDir(), t.TempDir()
	svc, _, err := OpenService(ServiceOptions{Dir: home})
	if err != nil {
		t.Fatal(err)
	}
	r, err := svc.CreateRepository("r", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.UpdateContext(context.Background(), ownedUpdate(t, c, "o", "u", "acknowledged", 1)); err != nil {
		t.Fatal(err)
	}
	if err := SaveService(svc, foreign); err == nil {
		t.Error("a durable service saved into a foreign directory")
	}
	if files, _ := os.ReadDir(foreign); len(files) != 0 {
		t.Errorf("the refused save left %d files in the foreign directory", len(files))
	}
	_ = svc.Close()
	restored, _, err := OpenService(ServiceOptions{Dir: home})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := restored.Repository("r"); err != nil || got.Size() != 1 {
		t.Fatalf("restored at home: err %v, want the acknowledged object", err)
	}
	_ = restored.Close()

	mem := openMem(t)
	mr, err := mem.CreateRepository("m", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mr.UpdateContext(context.Background(), ownedUpdate(t, c, "o", "u", "exported", 1)); err != nil {
		t.Fatal(err)
	}
	if err := SaveService(mem, foreign); err != nil {
		t.Fatalf("in-memory export: %v", err)
	}
	restored, _, err = OpenService(ServiceOptions{Dir: foreign})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = restored.Close() }()
	if got, err := restored.Repository("m"); err != nil || got.Size() != 1 {
		t.Fatalf("exported in-memory repository: err %v", err)
	}
}

// writeSnapshot writes r's snapshot image to w.
func writeSnapshot(r *Repository, w io.Writer) error {
	image, err := r.SnapshotBytes(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(image)
	return err
}
