package client

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/dataset"
	"mie/internal/obs"
	"mie/internal/server"
	"mie/internal/wire"
)

// TestTrainOutlivesItsCaller: Train is train-start followed by train-wait. A
// caller whose context ends mid-training gets that context's error; the job
// it started keeps running on the server, and a later TrainStatus reports it
// done.
func TestTrainOutlivesItsCaller(t *testing.T) {
	svc, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New("127.0.0.1:0", svc, nil, server.WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c, err := Dial(srv.Addr(), nil, WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc, err := core.NewClient(core.ClientConfig{Key: core.RepositoryKey{Master: crypto.Key{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRepository(bg, "r", wire.RepoOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, obj := range dataset.SyntheticText(dataset.SyntheticTextParams{N: 20, VocabSize: 200, Seed: 1}) {
		up, err := cc.PrepareUpdate(obj, crypto.Key{2})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Update(bg, "r", up); err != nil {
			t.Fatal(err)
		}
	}

	// Park the job at its install step until the caller has gone.
	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	core.SetTrainInstallHookForTest(func() {
		once.Do(func() { close(reached) })
		<-release
	})
	t.Cleanup(func() { core.SetTrainInstallHookForTest(nil) })

	ctx, cancel := context.WithCancel(bg)
	trained := make(chan error, 1)
	go func() { trained <- c.Train(ctx, "r") }()
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the train job never reached its install step")
	}
	cancel()
	if err := <-trained; !errors.Is(err, context.Canceled) {
		t.Fatalf("Train after its context ended: %v, want context.Canceled", err)
	}
	// Still running: a second start joins the caller's job.
	job, err := c.TrainStart(bg, "r")
	if err != nil || job.State != core.TrainRunning {
		t.Fatalf("job after its caller left: %+v, %v; want it running", job, err)
	}
	close(release)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := c.TrainStatus(bg, "r", job.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == core.TrainDone {
			break
		}
		if st.State != core.TrainRunning || time.Now().After(deadline) {
			t.Fatalf("job status %+v, want it done", st)
		}
	}
}
