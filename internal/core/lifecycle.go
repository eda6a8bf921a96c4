package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"mie/internal/obs"
	"mie/internal/wal"
)

// ServiceOptions is the single configuration surface of OpenService: where
// the service keeps durable state, how hard it syncs, how much memory
// resident repositories may use, and which per-tenant quotas admission
// control enforces. The zero value opens an empty in-memory service.
type ServiceOptions struct {
	// Dir is the data directory (snapshots and write-ahead logs side by
	// side). Empty means in-memory: nothing survives the process.
	Dir string
	// Sync is the WAL fsync policy; the zero value is wal.SyncAlways, under
	// which every acknowledged mutation survives kill -9 and power loss.
	Sync wal.SyncPolicy
	// SyncInterval bounds the loss window under wal.SyncInterval; 0 means
	// the wal package default (100ms).
	SyncInterval time.Duration
	// MemoryBudget caps the approximate resident bytes across active
	// repositories; beyond it the least-recently-used unpinned repository
	// is evicted back to disk. 0 means unlimited. Requires Dir.
	MemoryBudget int64
	// Quotas configures per-tenant admission control; the zero value
	// disables it.
	Quotas Quotas
	// LazyActivation makes discovered repositories start cold — registered
	// from their on-disk snapshots without loading — and activate on first
	// touch via the snapshot+WAL-replay path. Requires Dir.
	LazyActivation bool
}

// repoEntry is the lifecycle record of one hosted repository. It exists for
// every repository the service knows — resident or cold — and carries the
// state machine cold → activating → active (→ cold again on eviction).
type repoEntry struct {
	id string

	mu sync.Mutex
	// repo is non-nil while the repository is resident (active).
	repo *Repository
	// pins counts in-flight requests holding the repository via Acquire; a
	// pinned repository is never evicted.
	pins int
	// lastUsed is the service's logical LRU clock at the last Acquire.
	lastUsed uint64
	// loading, while non-nil, is the single-flight activation (or creation)
	// latch: concurrent acquirers wait on it instead of loading twice.
	loading chan struct{}
	// dropped marks an entry removed from the catalog, so a racing
	// activation discards its result instead of resurrecting it.
	dropped bool
}

// OpenService opens a service. It unifies what used to be NewService (in
// memory) and LoadService (durable): with a Dir every snapshot in it is
// restored — eagerly, or merely discovered when LazyActivation is set — and
// new mutations keep appending to the per-repository write-ahead logs.
//
// The returned RecoveryReport says what was reconstructed. Like LoadService
// before it, a durable open that fails to restore some repositories still
// returns the service (partial availability beats none after a crash)
// alongside the error.
func OpenService(opts ServiceOptions) (*Service, *RecoveryReport, error) {
	if opts.Dir == "" {
		if opts.MemoryBudget > 0 {
			return nil, nil, errors.New("core: MemoryBudget needs a data directory to evict to")
		}
		if opts.LazyActivation {
			return nil, nil, errors.New("core: LazyActivation needs a data directory to activate from")
		}
		s := newServiceShell()
		s.gov = newTenantGovernor(opts.Quotas)
		return s, &RecoveryReport{}, nil
	}
	if opts.MemoryBudget < 0 {
		return nil, nil, errors.New("core: negative MemoryBudget")
	}
	s := newServiceShell()
	s.durable = newDurability(DurableOptions{Dir: opts.Dir, Sync: opts.Sync, SyncInterval: opts.SyncInterval})
	s.lazy = opts.LazyActivation
	s.budget = opts.MemoryBudget
	s.gov = newTenantGovernor(opts.Quotas)
	report, err := s.openDir()
	if report != nil {
		// An eager open may have restored more than the budget allows.
		s.maybeEvict(nil)
	}
	return s, report, err
}

// Acquire returns the repository engine for id, activating it first if it
// is cold, and pins it resident until the returned release is called.
// Every request-scoped caller (the server, embedded handles) should hold a
// pin for exactly the span of one request: pinned repositories are immune
// to eviction, and releasing re-arms the memory-budget check. release is
// idempotent.
//
// Activation is single-flight: one loader runs the snapshot+WAL-replay
// path while concurrent acquirers of the same repository wait for it.
func (s *Service) Acquire(id string) (*Repository, func(), error) {
	for {
		s.mu.RLock()
		e := s.entries[id]
		s.mu.RUnlock()
		if e == nil {
			return nil, nil, fmt.Errorf("%w: %s", ErrRepoNotFound, id)
		}
		e.mu.Lock()
		if e.dropped {
			e.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: %s", ErrRepoNotFound, id)
		}
		if e.repo != nil {
			e.pins++
			e.lastUsed = s.clock.Add(1)
			r := e.repo
			e.mu.Unlock()
			return r, s.releaseFunc(e), nil
		}
		if ch := e.loading; ch != nil {
			e.mu.Unlock()
			<-ch
			continue
		}
		// Cold, and this caller won the activation: latch, load off-lock,
		// install.
		ch := make(chan struct{})
		e.loading = ch
		e.mu.Unlock()

		repo, err := s.activate(e)

		e.mu.Lock()
		e.loading = nil
		if err == nil && e.dropped {
			// Dropped while loading: discard the resurrected state.
			e.mu.Unlock()
			close(ch)
			s.gov.removeRepo(repo)
			_ = repo.Close()
			return nil, nil, fmt.Errorf("%w: %s", ErrRepoNotFound, id)
		}
		if err == nil {
			e.repo = repo
			e.pins++
			e.lastUsed = s.clock.Add(1)
		}
		e.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, nil, err
		}
		s.markActive(e)
		s.maybeEvict(e)
		return repo, s.releaseFunc(e), nil
	}
}

// activate loads one cold repository from disk: snapshot, then WAL replay,
// then the governor recount — all before any request sees it.
func (s *Service) activate(e *repoEntry) (*Repository, error) {
	if s.durable == nil {
		// Cold entries only exist on durable services; an in-memory entry is
		// always resident.
		return nil, fmt.Errorf("%w: %s", ErrRepoNotFound, e.id)
	}
	start := time.Now()
	_, sp := obs.StartSpan(context.Background(), obs.Default(), "repo/activate")
	repo, _, err := s.durable.loadRepo(sp, e.id)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: activate %s: %w", e.id, err)
	}
	repo.setGovernor(s.gov)
	if s.tap != nil {
		repo.setTap(s.tap)
	}
	s.gov.addRepo(repo)
	s.activations.Add(1)
	s.activationsC.Inc()
	s.activationH.Observe(time.Since(start).Seconds())
	return repo, nil
}

// releaseFunc builds the idempotent pin release for one Acquire.
func (s *Service) releaseFunc(e *repoEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			e.mu.Lock()
			e.pins--
			e.mu.Unlock()
			// A release is where growth accumulated during the request (and
			// the pin that blocked eviction) becomes actionable.
			s.maybeEvict(nil)
		})
	}
}

// markActive adds e to the resident set and refreshes the repo_active
// gauge.
func (s *Service) markActive(e *repoEntry) {
	s.activeMu.Lock()
	s.active[e] = struct{}{}
	s.activeGauge.Set(int64(len(s.active)))
	s.activeMu.Unlock()
}

// markInactive removes e from the resident set.
func (s *Service) markInactive(e *repoEntry) {
	s.activeMu.Lock()
	delete(s.active, e)
	s.activeGauge.Set(int64(len(s.active)))
	s.activeMu.Unlock()
}

// activeEntries snapshots the resident set.
func (s *Service) activeEntries() []*repoEntry {
	s.activeMu.Lock()
	out := make([]*repoEntry, 0, len(s.active))
	for e := range s.active {
		out = append(out, e)
	}
	s.activeMu.Unlock()
	return out
}

// maybeEvict brings the resident footprint back under the memory budget by
// evicting least-recently-used unpinned repositories. Single-flight: if an
// eviction pass is already running the caller returns immediately — the
// running pass re-scans until the budget holds. exclude (may be nil) is
// never chosen, so the repository an acquirer just activated survives at
// least until its own release.
func (s *Service) maybeEvict(exclude *repoEntry) {
	if s.budget <= 0 {
		return
	}
	if !s.evictMu.TryLock() {
		return
	}
	defer s.evictMu.Unlock()
	for {
		var total int64
		var victim *repoEntry
		var victimUsed uint64
		for _, e := range s.activeEntries() {
			e.mu.Lock()
			if e.repo == nil {
				e.mu.Unlock()
				continue
			}
			total += e.repo.ResidentBytes()
			if e != exclude && e.pins == 0 && (victim == nil || e.lastUsed < victimUsed) {
				victim = e
				victimUsed = e.lastUsed
			}
			e.mu.Unlock()
		}
		if total <= s.budget || victim == nil {
			return
		}
		s.evictEntry(victim)
	}
}

// evictEntry moves one active entry back to cold: the governor is credited,
// the repository closed — which seals its write-ahead log; the on-disk
// snapshot+WAL image already holds every acknowledged mutation — and the
// in-memory state dropped. Returns false if the entry was pinned, dropped
// or already cold by the time the lock was taken.
func (s *Service) evictEntry(e *repoEntry) bool {
	e.mu.Lock()
	if e.repo == nil || e.pins > 0 || e.dropped {
		e.mu.Unlock()
		return false
	}
	repo := e.repo
	s.gov.removeRepo(repo)
	// A close error cannot lose acknowledged data — the WAL sync policy
	// already governed what an ack meant — so eviction proceeds and the
	// error is only counted.
	if err := repo.Close(); err != nil {
		s.evictErrorsC.Inc()
	}
	e.repo = nil
	e.mu.Unlock()
	s.markInactive(e)
	s.evictions.Add(1)
	s.evictionsC.Inc()
	return true
}

// EvictRepository forces one repository cold, regardless of the memory
// budget — an operational tool (and the test seam for crash-during-eviction
// scenarios). It fails if the repository is pinned by in-flight requests;
// evicting an already-cold repository is a no-op.
func (s *Service) EvictRepository(id string) error {
	if s.durable == nil {
		return errors.New("core: eviction needs a durable service")
	}
	s.mu.RLock()
	e := s.entries[id]
	s.mu.RUnlock()
	if e == nil {
		return fmt.Errorf("%w: %s", ErrRepoNotFound, id)
	}
	e.mu.Lock()
	cold := e.repo == nil
	pinned := e.pins > 0
	e.mu.Unlock()
	if cold {
		return nil
	}
	if pinned {
		return fmt.Errorf("core: repository %s is pinned by in-flight requests", id)
	}
	if !s.evictEntry(e) {
		e.mu.Lock()
		cold = e.repo == nil
		e.mu.Unlock()
		if cold {
			return nil
		}
		return fmt.Errorf("core: repository %s is pinned by in-flight requests", id)
	}
	return nil
}

// LifecycleStats is a point-in-time summary of the service's repository
// lifecycle.
type LifecycleStats struct {
	// Repositories is every hosted repository, resident or cold.
	Repositories int
	// Active is the resident subset.
	Active int
	// ResidentBytes is the approximate memory footprint of the resident
	// repositories — the quantity the MemoryBudget bounds.
	ResidentBytes int64
	// Activations and Evictions are lifetime totals.
	Activations, Evictions uint64
}

// Lifecycle reports the service's current lifecycle counters.
func (s *Service) Lifecycle() LifecycleStats {
	st := LifecycleStats{
		Activations: s.activations.Load(),
		Evictions:   s.evictions.Load(),
	}
	s.mu.RLock()
	st.Repositories = len(s.entries)
	s.mu.RUnlock()
	for _, e := range s.activeEntries() {
		e.mu.Lock()
		if e.repo != nil {
			st.Active++
			st.ResidentBytes += e.repo.ResidentBytes()
		}
		e.mu.Unlock()
	}
	return st
}

// MemoryBudget returns the configured resident-bytes budget (0 =
// unlimited).
func (s *Service) MemoryBudget() int64 { return s.budget }

// Tenants returns the service's admission governor, nil when no quotas are
// configured. The governor is safe to use as nil.
func (s *Service) Tenants() *TenantGovernor { return s.gov }

// repoIDFromStem inverts repoFileStem: %xxxx escapes become runes again.
// Escapes are zero-padded to four hex digits but runes beyond the BMP print
// five or six, so the parse tries the shortest escape first and accepts the
// first decoding that re-escapes to exactly the input stem — a verified
// round trip, so the derived id always resolves back to the same files. A
// stem the writer could have produced from two different ids (an astral
// rune whose escape is continued by literal hex digits) decodes to the BMP
// interpretation; activation then reports the snapshot-id mismatch as a
// load error, never serving the wrong repository.
func repoIDFromStem(stem string) (string, error) {
	if !strings.Contains(stem, "%") {
		return stem, nil
	}
	isHex := func(c byte) bool {
		return c >= '0' && c <= '9' || c >= 'a' && c <= 'f'
	}
	var b strings.Builder
	for i := 0; i < len(stem); {
		c := stem[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		j := i + 1
		for j < len(stem) && j < i+1+6 && isHex(stem[j]) {
			j++
		}
		if j < i+5 {
			return "", fmt.Errorf("core: truncated escape in file stem %q", stem)
		}
		written := false
		for k := i + 5; k <= j; k++ {
			v, err := strconv.ParseUint(stem[i+1:k], 16, 32)
			if err == nil && v <= 0x10FFFF && repoFileStem(string(rune(v))) == "%"+stem[i+1:k] {
				b.WriteRune(rune(v))
				i = k
				written = true
				break
			}
		}
		if !written {
			return "", fmt.Errorf("core: bad escape in file stem %q", stem)
		}
	}
	id := b.String()
	if repoFileStem(id) != stem {
		return "", fmt.Errorf("core: file stem %q does not round-trip", stem)
	}
	return id, nil
}
