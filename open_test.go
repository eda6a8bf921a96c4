package mie

// Tests for the context-first Open API: the ErrRepositoryExists sentinel,
// options-mismatch detection on embedded reuse, and asynchronous training.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/replica"
	"mie/internal/server"
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
	other.VocabWords = 99
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

// createdOptions is a replication tap that records the options each
// repository of a service was created with, before anything else (a snapshot
// install) can replace them.
type createdOptions struct {
	mu   sync.Mutex
	opts map[string]RepositoryOptions
}

func (c *createdOptions) RepoCreated(id string, opts RepositoryOptions) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opts[id] = opts
}

func (c *createdOptions) get(id string) (RepositoryOptions, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	opts, ok := c.opts[id]
	return opts, ok
}

func (*createdOptions) RepoDropped(string)            {}
func (*createdOptions) MutationLogged(string, []byte) {}
func (*createdOptions) EpochInstalled(string, uint64) {}

// TestRestoreKeepsOptions: every RepositoryOptions field survives every path
// that rebuilds a repository — from its snapshot, or on a follower from the
// leader's catalog stream — so an embedded Open with the creation options
// still matches the rebuilt repository.
func TestRestoreKeepsOptions(t *testing.T) {
	ctx := context.Background()
	opts := RepositoryOptions{
		VocabWords:        12,
		VocabMaxIter:      7,
		TreeBranch:        2,
		TreeHeight:        3,
		TreeSeed:          5,
		TrainingSampleCap: 999,
		FusionCandidates:  17,
	}
	v := reflect.ValueOf(opts)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("RepositoryOptions.%s left at its default", v.Type().Field(i).Name)
		}
	}
	want := opts.WithDefaults()
	check := func(path string, svc *Service) {
		t.Helper()
		repo, release, err := svc.Acquire("opts")
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer release()
		if got := repo.Options(); got != want {
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
	catalogFollower(t, svc, want)

	repo, release, err := svc.Acquire("opts")
	if err != nil {
		t.Fatal(err)
	}
	image, err := repo.SnapshotBytes(nil)
	release()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.LoadRepository(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Options(); got != want {
		t.Errorf("Snapshot -> LoadRepository: Options()\ngot  %+v\nwant %+v", got, want)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// A one-byte budget evicts the repository at every release.
	restarted, _, err := OpenService(ServiceOptions{Dir: dir, MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = restarted.Close() }()
	check("durable restart", restarted)
	if st := restarted.Lifecycle(); st.Evictions == 0 || st.Active != 0 {
		t.Fatalf("the release under a one-byte budget left %+v, want the repository evicted", st)
	}
	check("eviction and re-activation", restarted)

	follower, _, err := OpenService(ServiceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = follower.Close() }()
	if err := follower.InstallSnapshot("opts", image); err != nil {
		t.Fatal(err)
	}
	check("InstallSnapshot", follower)

	h2, err := Open(ctx, Options{Service: restarted, Client: c, RepoID: "opts", Create: true, Repo: opts})
	if err != nil {
		t.Fatalf("Open with the creation options after a restart: %v", err)
	}
	_ = h2.Close()
}

// catalogFollower serves leader through a replication hub and starts a
// follower on it. The follower learns repository "opts" from the catalog
// stream and creates it with the options the create record carries; those,
// and what the follower ends up hosting, must equal want.
func catalogFollower(t *testing.T, leader *Service, want RepositoryOptions) {
	t.Helper()
	srv, err := server.New("127.0.0.1:0", leader, nil, server.WithReplication(replica.NewHub(leader, obs.NewRegistry())))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	folSvc, _, err := OpenService(ServiceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = folSvc.Close() }()
	created := &createdOptions{opts: make(map[string]RepositoryOptions)}
	folSvc.SetReplicationTap(created)
	fol, err := replica.StartFollower(folSvc, srv.Addr(), obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, ok := created.get("opts")
		if ok {
			if got != want {
				t.Errorf("catalog create on the follower: Options()\ngot  %+v\nwant %+v", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the follower never created the repository")
		}
		time.Sleep(2 * time.Millisecond)
	}
	repo, release, err := folSvc.Acquire("opts")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got := repo.Options(); got != want {
		t.Errorf("follower: Options()\ngot  %+v\nwant %+v", got, want)
	}
}
