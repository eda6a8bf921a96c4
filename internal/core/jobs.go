package core

import (
	"context"
	"errors"
	"sync"

	"mie/internal/obs"
)

// TrainJobState is the lifecycle state of an asynchronous training job.
type TrainJobState string

// Training job states. A job moves running -> done | failed exactly once.
const (
	TrainRunning TrainJobState = "running"
	TrainDone    TrainJobState = "done"
	TrainFailed  TrainJobState = "failed"
)

// TrainJobStatus is a point-in-time view of one training job. Epoch is the
// index generation installed by the job (meaningful once State is TrainDone;
// see Repository.Epoch for the live generation).
type TrainJobStatus struct {
	JobID uint64
	State TrainJobState
	Err   string
	Epoch uint64
}

// ErrUnknownJob is returned for job ids that never existed or were evicted
// from the finished-job history.
var ErrUnknownJob = errors.New("core: unknown train job")

// maxFinishedJobs bounds the finished-job history kept for status queries;
// older entries are evicted FIFO. Clients that care about a job's outcome
// query it promptly (TrainWait does so built-in), so a short history
// suffices.
const maxFinishedJobs = 32

// trainJob is one asynchronous training run. done is closed exactly once,
// after the final status is published.
type trainJob struct {
	id   uint64
	done chan struct{}

	mu     sync.Mutex
	status TrainJobStatus
}

func (j *trainJob) currentStatus() TrainJobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *trainJob) setStatus(st TrainJobStatus) {
	j.mu.Lock()
	j.status = st
	j.mu.Unlock()
}

// jobTable tracks a repository's training jobs: at most one running at a
// time (Train is globally serialized by trainMu anyway) plus a bounded
// history of finished ones.
type jobTable struct {
	mu       sync.Mutex
	next     uint64
	running  *trainJob
	finished map[uint64]*trainJob
	order    []uint64 // eviction order of finished jobs
}

// TrainStart launches training as a background job and returns its id
// immediately. If a job is already running, its id is returned instead of
// starting a second one: training is idempotent while in flight, and the
// epoch swap makes back-to-back retrains pointless.
func (r *Repository) TrainStart() uint64 {
	r.jobs.mu.Lock()
	defer r.jobs.mu.Unlock()
	if j := r.jobs.running; j != nil {
		return j.id
	}
	r.jobs.next++
	j := &trainJob{id: r.jobs.next, done: make(chan struct{})}
	j.status = TrainJobStatus{JobID: j.id, State: TrainRunning}
	r.jobs.running = j
	obs.Default().Counter("repo_train_jobs_total").Inc()
	go r.runTrainJob(j)
	return j.id
}

// runTrainJob executes one training run to completion and publishes its
// outcome. The job deliberately runs under a background context: it belongs
// to the repository, not to the RPC (or caller) that started it — a phone
// disconnecting must not abort the multi-minute k-means run it outsourced.
func (r *Repository) runTrainJob(j *trainJob) {
	err := r.TrainContext(context.Background())
	st := TrainJobStatus{JobID: j.id, Epoch: r.Epoch()}
	if err != nil {
		st.State = TrainFailed
		st.Err = err.Error()
	} else {
		st.State = TrainDone
	}
	j.setStatus(st)

	r.jobs.mu.Lock()
	r.jobs.running = nil
	if r.jobs.finished == nil {
		r.jobs.finished = make(map[uint64]*trainJob)
	}
	r.jobs.finished[j.id] = j
	r.jobs.order = append(r.jobs.order, j.id)
	for len(r.jobs.order) > maxFinishedJobs {
		delete(r.jobs.finished, r.jobs.order[0])
		r.jobs.order = r.jobs.order[1:]
	}
	r.jobs.mu.Unlock()
	close(j.done)
}

// job looks a live or finished job up by id.
func (r *Repository) job(id uint64) (*trainJob, error) {
	r.jobs.mu.Lock()
	defer r.jobs.mu.Unlock()
	if j := r.jobs.running; j != nil && j.id == id {
		return j, nil
	}
	if j, ok := r.jobs.finished[id]; ok {
		return j, nil
	}
	return nil, ErrUnknownJob
}

// TrainJob returns the current status of a training job.
func (r *Repository) TrainJob(id uint64) (TrainJobStatus, error) {
	j, err := r.job(id)
	if err != nil {
		return TrainJobStatus{}, err
	}
	return j.currentStatus(), nil
}

// TrainWait blocks until the job finishes or ctx expires. On ctx expiry it
// returns the job's latest (still-running) status alongside ctx's error, so
// callers can distinguish "not done yet" from "unknown job".
func (r *Repository) TrainWait(ctx context.Context, id uint64) (TrainJobStatus, error) {
	j, err := r.job(id)
	if err != nil {
		return TrainJobStatus{}, err
	}
	select {
	case <-j.done:
		return j.currentStatus(), nil
	case <-ctx.Done():
		return j.currentStatus(), ctx.Err()
	}
}

// Epoch returns the current index generation: 0 before the first Train,
// incremented by each successful epoch swap. Lock-free.
func (r *Repository) Epoch() uint64 { return r.state.Load().epoch }
