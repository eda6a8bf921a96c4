package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// jobTestRepo builds a tiny text-only repository with a few objects so Train
// has something to do.
func jobTestRepo(t *testing.T, n int) (*Repository, *Client) {
	t.Helper()
	key, err := NewRepositoryKey()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := NewRepository("jobs", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dk := key.Master
	for i := 0; i < n; i++ {
		up, err := client.PrepareUpdate(&Object{
			ID:    fmt.Sprintf("d%d", i),
			Owner: "u",
			Text:  fmt.Sprintf("document number %d about topic %d", i, i%3),
		}, dk)
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.UpdateContext(context.Background(), up); err != nil {
			t.Fatal(err)
		}
	}
	return repo, client
}

func TestTrainStartWaitLifecycle(t *testing.T) {
	repo, _ := jobTestRepo(t, 6)
	if repo.Epoch() != 0 {
		t.Fatalf("epoch before train = %d", repo.Epoch())
	}
	id := repo.TrainStart()
	if id == 0 {
		t.Fatal("job id must be nonzero")
	}
	st, err := repo.TrainWait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != TrainDone || st.JobID != id {
		t.Fatalf("status = %+v", st)
	}
	if st.Epoch != 1 || repo.Epoch() != 1 {
		t.Errorf("epoch = %d (status %d), want 1", repo.Epoch(), st.Epoch)
	}
	if !repo.state.Load().trained {
		t.Error("repository not trained after job completed")
	}
	// Status stays queryable after completion.
	again, err := repo.TrainJob(id)
	if err != nil || again.State != TrainDone {
		t.Errorf("TrainJob after done: %+v, %v", again, err)
	}
}

func TestTrainStartDeduplicatesRunningJob(t *testing.T) {
	repo, _ := jobTestRepo(t, 6)
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	SetTrainInstallHookForTest(func() {
		entered <- struct{}{}
		<-release // closed after the first run; later runs pass through
	})
	defer SetTrainInstallHookForTest(nil)

	id1 := repo.TrainStart()
	<-entered
	id2 := repo.TrainStart()
	if id1 != id2 {
		t.Errorf("second TrainStart launched a new job: %d != %d", id1, id2)
	}
	st, err := repo.TrainJob(id1)
	if err != nil || st.State != TrainRunning {
		t.Errorf("mid-flight status = %+v, %v", st, err)
	}
	close(release)
	if st, err := repo.TrainWait(context.Background(), id1); err != nil || st.State != TrainDone {
		t.Fatalf("wait: %+v, %v", st, err)
	}
	// After completion a new TrainStart creates a distinct job.
	id3 := repo.TrainStart()
	if id3 == id1 {
		t.Error("TrainStart reused a finished job id")
	}
	if _, err := repo.TrainWait(context.Background(), id3); err != nil {
		t.Fatal(err)
	}
}

func TestTrainWaitHonorsContext(t *testing.T) {
	repo, _ := jobTestRepo(t, 6)
	release := make(chan struct{})
	entered := make(chan struct{})
	SetTrainInstallHookForTest(func() {
		close(entered)
		<-release
	})
	defer SetTrainInstallHookForTest(nil)
	id := repo.TrainStart()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	st, err := repo.TrainWait(ctx, id)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if st.State != TrainRunning {
		t.Errorf("interrupted wait reported state %q", st.State)
	}
	close(release)
	if st, err := repo.TrainWait(context.Background(), id); err != nil || st.State != TrainDone {
		t.Fatalf("final wait: %+v, %v", st, err)
	}
}

func TestTrainJobUnknownID(t *testing.T) {
	repo, _ := jobTestRepo(t, 2)
	if _, err := repo.TrainJob(999); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("err = %v, want ErrUnknownJob", err)
	}
	if _, err := repo.TrainWait(context.Background(), 999); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("wait err = %v, want ErrUnknownJob", err)
	}
}

func TestTrainContextCancelledBeforeInstall(t *testing.T) {
	repo, _ := jobTestRepo(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	SetTrainInstallHookForTest(func() { cancel() })
	defer SetTrainInstallHookForTest(nil)
	if err := repo.TrainContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abort must leave the untrained epoch serving.
	if repo.state.Load().trained || repo.Epoch() != 0 {
		t.Errorf("aborted train installed an epoch: trained=%v epoch=%d", repo.state.Load().trained, repo.Epoch())
	}
	// And a later un-cancelled Train succeeds.
	if err := repo.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !repo.state.Load().trained || repo.Epoch() != 1 {
		t.Errorf("follow-up train: trained=%v epoch=%d", repo.state.Load().trained, repo.Epoch())
	}
}

func TestTrainContextExpiredUpFront(t *testing.T) {
	repo, _ := jobTestRepo(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := repo.TrainContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRepositoryOptionsAccessor(t *testing.T) {
	repo, _ := jobTestRepo(t, 1)
	opts := repo.Options()
	if opts.VocabWords == 0 || opts.TrainingSampleCap == 0 {
		t.Errorf("Options() missing defaults: %+v", opts)
	}
}
