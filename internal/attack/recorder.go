package attack

import (
	"sync"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/wal"
)

// Observation is what the server saw of one object through updates: its
// deterministic id and, from its latest update, its token ids with
// frequencies — the raw material of the frequency-signature attack.
type Observation struct {
	ObjectID string
	Tokens   map[dpe.Token]uint64
}

// Recorder is the adversary's view of one repository: a core.ReplicationTap
// that decodes every durable mutation record the server logged (the WAL,
// byte for byte) and keeps each object's latest update. A removal does not
// erase what the server already saw, so removed objects stay observed.
type Recorder struct {
	repoID string

	mu  sync.Mutex
	obs []Observation
	at  map[string]int // ObjectID -> index in obs
	err error          // first record that did not decode
}

// NewRecorder returns a recorder for the repository repoID; attach it with
// core.Service.SetReplicationTap.
func NewRecorder(repoID string) *Recorder {
	return &Recorder{repoID: repoID, at: make(map[string]int)}
}

// RepoCreated implements core.ReplicationTap; the catalog leaks nothing the
// attack uses.
func (*Recorder) RepoCreated(string, core.RepositoryOptions) {}

// RepoDropped implements core.ReplicationTap.
func (*Recorder) RepoDropped(string) {}

// EpochInstalled implements core.ReplicationTap.
func (*Recorder) EpochInstalled(string, uint64) {}

// MutationLogged implements core.ReplicationTap: it decodes the logged
// record and, for an update, replaces the object's observation.
func (r *Recorder) MutationLogged(repoID string, payload []byte) {
	if repoID != r.repoID {
		return
	}
	up, _, err := core.DecodeRecord(payload)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return
	}
	if up == nil {
		return
	}
	o := Observation{ObjectID: up.ObjectID, Tokens: up.TextTokens}
	if i, ok := r.at[o.ObjectID]; ok {
		r.obs[i] = o
		return
	}
	r.at[o.ObjectID] = len(r.obs)
	r.obs = append(r.obs, o)
}

// Observations returns one observation per object ever updated, in order of
// first update, and the first decode error, if any record failed to decode.
func (r *Recorder) Observations() ([]Observation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Observation(nil), r.obs...), r.err
}

// OpenTarget opens a durable service in dir (fsync off: the attack needs the
// record stream, not crash safety), attaches a Recorder to it and creates
// the repository id to attack. The caller closes the service.
func OpenTarget(dir, id string, opts core.RepositoryOptions) (*core.Service, *core.Repository, *Recorder, error) {
	svc, _, err := core.OpenService(core.ServiceOptions{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		return nil, nil, nil, err
	}
	rec := NewRecorder(id)
	svc.SetReplicationTap(rec)
	repo, err := svc.CreateRepository(id, opts)
	if err != nil {
		_ = svc.Close()
		return nil, nil, nil, err
	}
	return svc, repo, rec, nil
}
