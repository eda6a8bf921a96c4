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
// all in memory: on a durable service opened with LazyActivation,
// repositories start cold (snapshot + WAL on disk only), are activated on
// first Acquire, and are evicted back to cold — least recently used first —
// whenever the resident footprint exceeds MemoryBudget. Construction goes
// through OpenService.
type Service struct {
	// mu guards the entry catalog.
	mu      sync.RWMutex
	entries map[string]*repoEntry

	// durable (nil for in-memory services) is the snapshot+WAL persistence
	// configuration.
	durable *durability
	// unloaded holds the file stems of the repositories openDir found but
	// could not load (written before the service is handed out, read-only
	// after). Their files are somebody's data: nothing the service does
	// later — the orphan sweep, a create under the same id — may delete or
	// overwrite them.
	unloaded map[string]bool
	// lazy defers loading discovered repositories until first touch.
	lazy bool
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
}

// newServiceShell builds an empty service with its metric handles; the
// OpenService paths fill in persistence, budget and quotas.
func newServiceShell() *Service {
	reg := obs.Default()
	return &Service{
		entries:      make(map[string]*repoEntry),
		active:       make(map[*repoEntry]struct{}),
		repoGauge:    reg.Gauge("service_repositories"),
		activeGauge:  reg.Gauge("repo_active"),
		activationsC: reg.Counter("repo_activations_total"),
		evictionsC:   reg.Counter("repo_evictions_total"),
		evictErrorsC: reg.Counter("repo_eviction_errors_total"),
		activationH:  reg.Histogram("repo_activation_seconds"),
	}
}

// CreateRepository initializes a new repository (Algorithm 5's cloud half).
// On a durable service the repository is durable from birth: its write-ahead
// log is opened and an initial snapshot written before the create is
// acknowledged, so a crash at any later point can restore it.
func (s *Service) CreateRepository(id string, opts RepositoryOptions) (*Repository, error) {
	// Reserve the id first (with the creation latch held), then build the
	// repository off the catalog lock: a concurrent Acquire of the same id
	// waits on the latch instead of finding half a repository.
	if s.unloaded[repoFileStem(id)] {
		return nil, fmt.Errorf("%w: %s failed to load at start-up and its files are kept", ErrRepoExists, id)
	}
	e := &repoEntry{id: id, loading: make(chan struct{})}
	s.mu.Lock()
	if _, ok := s.entries[id]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrRepoExists, id)
	}
	s.entries[id] = e
	s.repoGauge.Set(int64(len(s.entries)))
	s.mu.Unlock()

	r, err := NewRepository(id, opts)
	if err == nil && s.durable != nil {
		if derr := s.durable.initRepo(r); derr != nil {
			_ = r.Close()
			err = derr
		}
	}
	e.mu.Lock()
	if err != nil {
		e.dropped = true
		ch := e.loading
		e.loading = nil
		e.mu.Unlock()
		close(ch)
		s.mu.Lock()
		delete(s.entries, id)
		s.repoGauge.Set(int64(len(s.entries)))
		s.mu.Unlock()
		return nil, err
	}
	r.setGovernor(s.gov)
	if s.tap != nil {
		r.setTap(s.tap)
	}
	e.repo = r
	e.lastUsed = s.clock.Add(1)
	ch := e.loading
	e.loading = nil
	e.mu.Unlock()
	close(ch)
	if s.tap != nil {
		s.tap.RepoCreated(id, r.Options())
	}
	s.markActive(e)
	s.maybeEvict(e)
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
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrRepoNotFound, id)
	}
	delete(s.entries, id)
	s.repoGauge.Set(int64(len(s.entries)))
	s.mu.Unlock()

	// Wait out any in-flight activation, then tear down whatever is
	// resident. The dropped mark makes a racing Acquire fail instead of
	// resurrecting the repository from its (about to be deleted) files.
	e.mu.Lock()
	for e.loading != nil {
		ch := e.loading
		e.mu.Unlock()
		<-ch
		e.mu.Lock()
	}
	e.dropped = true
	var err error
	if e.repo != nil {
		s.gov.removeRepo(e.repo)
		err = e.repo.Close()
		e.repo = nil
	}
	e.mu.Unlock()
	s.markInactive(e)
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
		e.mu.Lock()
		for e.loading != nil {
			ch := e.loading
			e.mu.Unlock()
			<-ch
			e.mu.Lock()
		}
		e.dropped = true
		if e.repo != nil {
			if err := e.repo.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("close %s: %w", id, err)
			}
			e.repo = nil
		}
		e.mu.Unlock()
		s.markInactive(e)
	}
	return firstErr
}
