package mie

// Tests for the context-first Open API: the ErrRepositoryExists sentinel,
// options-mismatch detection on embedded reuse, and asynchronous training.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mie/internal/cluster"
	"mie/internal/core"
)

func newTestClient(t *testing.T) *Client {
	t.Helper()
	key, err := NewRepositoryKey()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(smallClientConfig(key))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOpenLocalCreateConflict(t *testing.T) {
	ctx := context.Background()
	svc := memService(t)
	c := newTestClient(t)
	r1, err := Open(ctx, Options{Service: svc, Client: c, RepoID: "r", Create: true, Repo: smallRepoOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r1.Close() }()

	// Re-creating with identical options is harmless: no error.
	r2, err := Open(ctx, Options{Service: svc, Client: c, RepoID: "r", Create: true, Repo: smallRepoOptions()})
	if err != nil {
		t.Fatalf("identical re-create: %v", err)
	}
	defer func() { _ = r2.Close() }()

	// Re-creating with different options reports the sentinel but still
	// hands back a working handle to the existing repository.
	other := smallRepoOptions()
	other.Vocab.Words = 99
	r3, err := Open(ctx, Options{Service: svc, Client: c, RepoID: "r", Create: true, Repo: other})
	if !errors.Is(err, ErrRepositoryExists) {
		t.Fatalf("mismatched re-create: err = %v, want ErrRepositoryExists", err)
	}
	if r3 == nil {
		t.Fatal("mismatched re-create returned no handle")
	}
	dk, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := r3.Add(ctx, &Object{ID: "x", Owner: "me", Text: "still usable"}, dk); err != nil {
		t.Fatalf("handle returned with sentinel is unusable: %v", err)
	}
	_ = r3.Close()

	// Opening without Create a repository that does not exist fails.
	if _, err := Open(ctx, Options{Service: svc, Client: c, RepoID: "nope"}); err == nil {
		t.Error("open of missing repository succeeded")
	}
}

func TestOpenRemoteCreateConflictSentinel(t *testing.T) {
	ctx := context.Background()
	svc := memService(t)
	srv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c := newTestClient(t)
	r1, err := Open(ctx, Options{Addr: srv.Addr(), Client: c, RepoID: "dup", Create: true, Repo: smallRepoOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r1.Close() })

	r2, err := Open(ctx, Options{Addr: srv.Addr(), Client: c, RepoID: "dup", Create: true, Repo: smallRepoOptions()})
	if !errors.Is(err, ErrRepositoryExists) {
		t.Fatalf("remote re-create: err = %v, want ErrRepositoryExists", err)
	}
	if r2 == nil {
		t.Fatal("remote re-create returned no handle")
	}
	dk, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Add(ctx, &Object{ID: "x", Owner: "me", Text: "usable"}, dk); err != nil {
		t.Fatalf("handle returned with sentinel is unusable: %v", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

func trainAsyncExercise(t *testing.T, ctx context.Context, repo Repository) {
	t.Helper()
	dk, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{"alpha document one", "beta document two", "gamma note three"} {
		if err := repo.Add(ctx, &Object{ID: string(rune('a' + i)), Owner: "me", Text: text}, dk); err != nil {
			t.Fatal(err)
		}
	}
	job, err := repo.TrainAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() == 0 {
		t.Error("job ID = 0")
	}
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != TrainDone {
		t.Fatalf("job state = %v (err %q), want TrainDone", st.State, st.Err)
	}
	if st.Epoch == 0 {
		t.Error("trained epoch = 0, want >= 1")
	}
	// Status after completion still reports the finished job.
	st2, err := job.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != TrainDone || st2.JobID != job.ID() {
		t.Errorf("status after done = %+v", st2)
	}
	hits, err := repo.Search(ctx, &Object{ID: "q", Text: "beta"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ObjectID != "b" {
		t.Errorf("hits = %+v", hits)
	}
}

func TestTrainAsyncLocal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	repo, err := Open(ctx, Options{Client: newTestClient(t), RepoID: "r", Create: true, Repo: smallRepoOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = repo.Close() }()
	trainAsyncExercise(t, ctx, repo)
}

func TestTrainAsyncRemote(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	svc := memService(t)
	srv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	repo, err := Open(ctx, Options{Addr: srv.Addr(), Client: newTestClient(t), RepoID: "r", Create: true, Repo: smallRepoOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = repo.Close() }()
	trainAsyncExercise(t, ctx, repo)
}

func TestOpenValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Open(ctx, Options{RepoID: "r"}); err == nil {
		t.Error("Open without Client succeeded")
	}
	if _, err := Open(ctx, Options{Client: newTestClient(t)}); err == nil {
		t.Error("Open without RepoID succeeded")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Open(canceled, Options{Client: newTestClient(t), RepoID: "r", Create: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("Open with canceled ctx: err = %v", err)
	}
}

// zeroFields lists the leaf fields of v that hold their zero value.
func zeroFields(v reflect.Value, path string) []string {
	if v.Kind() != reflect.Struct {
		if v.IsZero() {
			return []string{path}
		}
		return nil
	}
	var zero []string
	for i := 0; i < v.NumField(); i++ {
		zero = append(zero, zeroFields(v.Field(i), path+"."+v.Type().Field(i).Name)...)
	}
	return zero
}

// TestRestoreKeepsOptions: every RepositoryOptions field survives every path
// that rebuilds a repository from its snapshot, so an embedded Open with the
// creation options still matches the restored repository.
func TestRestoreKeepsOptions(t *testing.T) {
	ctx := context.Background()
	opts := RepositoryOptions{
		Modalities:        []core.Modality{core.ModalityText, core.ModalityImage},
		Vocab:             cluster.VocabParams{Words: 12, Tree: cluster.TreeParams{Branch: 2, Height: 3, Seed: 5}, Seed: 3, MaxIter: 7},
		TrainingSampleCap: 999,
		FusionCandidates:  17,
		Incremental:       core.IncrementalOptions{Disable: true, DriftThreshold: 0.3, ReassignThreshold: 0.7, MemtableCap: 5, CompactSegments: 3},
	}
	if zero := zeroFields(reflect.ValueOf(opts), "RepositoryOptions"); len(zero) > 0 {
		t.Fatalf("fields left at their default: %v", zero)
	}
	want := opts.WithDefaults()
	check := func(path string, svc *Service) {
		t.Helper()
		repo, release, err := svc.Acquire("opts")
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer release()
		if got := repo.Options(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Options()\ngot  %+v\nwant %+v", path, got, want)
		}
	}

	dir := t.TempDir()
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t)
	h, err := Open(ctx, Options{Service: svc, Client: c, RepoID: "opts", Create: true, Repo: opts})
	if err != nil {
		t.Fatal(err)
	}
	dk, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{"alpha document one", "beta document two", "gamma note three"} {
		if err := h.Add(ctx, &Object{ID: string(rune('a' + i)), Owner: "me", Text: text}, dk); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Train(ctx); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	check("created", svc)

	repo, release, err := svc.Acquire("opts")
	if err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	err = repo.Snapshot(&image)
	release()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.LoadRepository(bytes.NewReader(image.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Options(); !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot -> LoadRepository: Options()\ngot  %+v\nwant %+v", got, want)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = restarted.Close() }()
	check("durable restart", restarted)
	if err := restarted.EvictRepository("opts"); err != nil {
		t.Fatal(err)
	}
	check("eviction and re-activation", restarted)

	follower, _, err := OpenService(ServiceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = follower.Close() }()
	if err := follower.InstallSnapshot("opts", image.Bytes()); err != nil {
		t.Fatal(err)
	}
	check("InstallSnapshot", follower)

	h2, err := Open(ctx, Options{Service: restarted, Client: c, RepoID: "opts", Create: true, Repo: opts})
	if err != nil {
		t.Fatalf("Open with the creation options after a restart: %v", err)
	}
	_ = h2.Close()
}
