package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mie/internal/obs"
)

// Service errors.
var (
	// ErrRepoExists is returned when creating a repository whose id is taken.
	ErrRepoExists = errors.New("core: repository already exists")
	// ErrRepoNotFound is returned for operations on unknown repositories.
	ErrRepoNotFound = errors.New("core: repository not found")
)

// Service is the MIE server component "as a service": it hosts many
// independent repositories, each shared by its own set of authorized users
// (Figure 1). It is the object cmd/mie-server exposes over the network.
//
// A service knows every repository in its catalog but need not hold them
// all in memory: on a durable service with a MemoryBudget, repositories
// start cold (snapshot + WAL on disk only), are activated on first Acquire,
// and are evicted back to cold — least recently used first — whenever the
// resident footprint exceeds the budget. Construction goes through
// OpenService.
type Service struct {
	// mu guards the entry catalog and unloaded.
	mu      sync.RWMutex
	entries map[string]*repoEntry
	// unloaded holds the file stems of the repositories openDir found but
	// could not load. Their files are somebody's data: nothing the service
	// does later — the orphan sweep, a create under the same id — may delete
	// or overwrite them. Only an install under the id takes the stem out,
	// after renaming the files aside (claim).
	unloaded map[string]bool

	// durable (nil for in-memory services) is the snapshot+WAL persistence
	// configuration.
	durable *durability
	// budget is the resident-bytes cap (0 = unlimited).
	budget int64
	// gov is the per-tenant admission governor (nil = no quotas).
	gov *TenantGovernor
	// tap (nil unless replication is enabled; set before the service serves
	// requests) observes the catalog and every repository's durable
	// mutation stream. See ReplicationTap.
	tap ReplicationTap

	// clock is the logical LRU clock; every Acquire stamps its entry.
	clock atomic.Uint64
	// evictMu single-flights eviction passes.
	evictMu sync.Mutex
	// activeMu guards active, the resident subset of entries — kept
	// separately so eviction scans cost O(active), not O(catalog).
	activeMu sync.Mutex
	active   map[*repoEntry]struct{}

	activations atomic.Uint64
	evictions   atomic.Uint64

	repoGauge    *obs.Gauge
	activeGauge  *obs.Gauge
	activationsC *obs.Counter
	evictionsC   *obs.Counter
	evictErrorsC *obs.Counter
	activationH  *obs.Histogram

	// restoreFailed is len(unloaded): repositories down since start-up
	// while the healthy ones serve.
	restoreFailed *obs.Gauge
}

// newServiceShell builds an empty service with its metric handles; the
// OpenService paths fill in persistence, budget and quotas.
func newServiceShell() *Service {
	reg := obs.Default()
	return &Service{
		entries:       make(map[string]*repoEntry),
		unloaded:      make(map[string]bool),
		active:        make(map[*repoEntry]struct{}),
		repoGauge:     reg.Gauge("service_repositories"),
		activeGauge:   reg.Gauge("repo_active"),
		restoreFailed: reg.Gauge("service_restore_failed"),
		activationsC:  reg.Counter("repo_activations_total"),
		evictionsC:    reg.Counter("repo_evictions_total"),
		evictErrorsC:  reg.Counter("repo_eviction_errors_total"),
		activationH:   reg.Histogram("repo_activation_seconds"),
	}
}

// CreateRepository initializes a new repository (Algorithm 5's cloud half).
// On a durable service the repository is durable from birth: its write-ahead
// log is opened and an initial snapshot written before the create is
// acknowledged, so a crash at any later point can restore it.
func (s *Service) CreateRepository(id string, opts RepositoryOptions) (*Repository, error) {
	// Reserve the id under the latch, then build the repository off the
	// catalog lock: a concurrent Acquire of the same id waits on the latch
	// instead of finding half a repository.
	e, err := s.claim(id, claimNew)
	if err != nil {
		return nil, err
	}
	ch := e.latch()
	r, err := NewRepository(id, opts)
	if err == nil && s.durable != nil {
		if err = s.durable.initRepo(r); err != nil {
			_ = r.Close()
		}
	}
	if err != nil {
		// Never acknowledged: the id leaves the catalog again.
		e.mu.Lock()
		s.unregister(e)
		e.mu.Unlock()
	}
	if err := s.settle(e, ch, r, err, false); err != nil {
		return nil, err
	}
	if s.tap != nil {
		s.tap.RepoCreated(id, r.Options())
	}
	return r, nil
}

// Repository returns the engine for a repository id, activating it first if
// it is cold — without pinning it. Under a memory budget the engine may be
// evicted at any later point; request-scoped callers should use Acquire,
// which pins the repository for the span of the request.
func (s *Service) Repository(id string) (*Repository, error) {
	r, release, err := s.Acquire(id)
	if err != nil {
		return nil, err
	}
	release()
	return r, nil
}

// Repositories lists hosted repository ids, cold and active alike.
func (s *Service) Repositories() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.entries))
	for id := range s.entries {
		out = append(out, id)
	}
	return out
}

// Unloaded lists the ids of the repositories whose files failed to load at
// start-up and are kept untouched: not hosted, yet not gone either.
func (s *Service) Unloaded() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.unloaded))
	for stem := range s.unloaded {
		if id, err := repoIDFromStem(stem); err == nil {
			out = append(out, id)
		}
	}
	return out
}

// LeakageSummaries returns the per-repository leakage profiles of the
// *active* repositories, keyed by repository id — the payload of the
// server's /debug/leakage endpoint. Cold repositories have no in-memory
// leakage state to report.
func (s *Service) LeakageSummaries() map[string]LeakageSummary {
	out := make(map[string]LeakageSummary)
	for _, e := range s.activeEntries() {
		e.mu.Lock()
		if e.repo != nil {
			out[e.id] = e.repo.leak.Summary()
		}
		e.mu.Unlock()
	}
	return out
}

// DropRepository removes a repository and releases its resources. On a
// durable service its on-disk snapshot and log are deleted too — snapshot
// first, so a crash mid-drop can at worst leave an orphaned log (pruned on
// the next load), never a snapshot that would resurrect the repository.
func (s *Service) DropRepository(id string) error {
	// Wait out any in-flight load, then tear down whatever is resident. The
	// dropped mark makes a racing Acquire fail instead of resurrecting the
	// repository from its (about to be deleted) files.
	e, err := s.claim(id, claimHosted)
	if err != nil {
		return err
	}
	s.unregister(e)
	err = s.retire(e)
	e.mu.Unlock()
	if s.durable != nil {
		if derr := s.durable.removeRepoFiles(id); derr != nil && err == nil {
			err = derr
		}
	}
	if s.tap != nil {
		s.tap.RepoDropped(id)
	}
	return err
}

// Close releases every hosted repository.
func (s *Service) Close() error {
	s.mu.Lock()
	entries := s.entries
	s.entries = make(map[string]*repoEntry)
	s.repoGauge.Set(0)
	s.mu.Unlock()
	var firstErr error
	for id, e := range entries {
		e.await()
		e.dropped = true
		if err := s.retire(e); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("close %s: %w", id, err)
		}
		e.mu.Unlock()
	}
	return firstErr
}
