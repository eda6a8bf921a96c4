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
	// is evicted back to disk. 0 means unlimited. Requires Dir. A durable
	// service with a budget starts cold: its repositories stay on disk until
	// their first Acquire.
	MemoryBudget int64
	// Quotas configures per-tenant admission control; the zero value
	// disables it.
	Quotas Quotas
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
	// loading, while non-nil, is the latch of the one load in flight — a
	// create, an activation or an install. Everyone else waits it out in
	// claim instead of loading twice.
	loading chan struct{}
	// dropped marks an entry removed from the catalog. Only a holder of mu
	// with no load in flight (or the latch holder itself) sets it, so a load
	// never settles into a dropped entry.
	dropped bool
}

// OpenService opens a service. It unifies what used to be NewService (in
// memory) and LoadService (durable): with a Dir every snapshot in it is
// registered and — unless a MemoryBudget makes the service start cold —
// activated, and new mutations keep appending to the per-repository
// write-ahead logs.
//
// The returned RecoveryReport says what was reconstructed. Like LoadService
// before it, a durable open that fails to restore some repositories still
// returns the service (partial availability beats none after a crash)
// alongside the error.
func OpenService(opts ServiceOptions) (*Service, *RecoveryReport, error) {
	s := newServiceShell()
	s.gov = newTenantGovernor(opts.Quotas)
	if opts.Dir == "" {
		if opts.MemoryBudget > 0 {
			return nil, nil, errors.New("core: MemoryBudget needs a data directory to evict to")
		}
		return s, &RecoveryReport{}, nil
	}
	if opts.MemoryBudget < 0 {
		return nil, nil, errors.New("core: negative MemoryBudget")
	}
	s.durable = newDurability(opts)
	s.budget = opts.MemoryBudget
	report, err := s.openDir()
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
	e, err := s.claim(id, claimHosted)
	if err != nil {
		return nil, nil, err
	}
	if r := e.repo; r != nil {
		e.pins++
		e.lastUsed = s.clock.Add(1)
		e.mu.Unlock()
		return r, s.releaseFunc(e), nil
	}
	repo, _, err := s.activate(e, true)
	if err != nil {
		return nil, nil, err
	}
	return repo, s.releaseFunc(e), nil
}

// claimMode says which catalog states claim accepts for an id.
type claimMode int

const (
	claimHosted  claimMode = iota // a hosted id (Acquire, DropRepository)
	claimNew                      // an id nobody holds (CreateRepository)
	claimInstall                  // either; a new entry if unknown (InstallSnapshot)
)

// claim is the one way to an entry: it returns id's entry with e.mu held
// and no load in flight, ready for the caller to latch. A new entry is
// locked before it enters the catalog, so nobody else can reach it first.
// The stem of a repository that failed to load at start-up is nobody's to
// reuse by accident: a create is refused, and an install first renames its
// files aside (durability.quarantine) and forgets the stem.
func (s *Service) claim(id string, mode claimMode) (*repoEntry, error) {
	for {
		e, fresh, err := s.lookup(id, mode)
		if err != nil || fresh {
			return e, err
		}
		if e.await() {
			return e, nil
		}
		e.mu.Unlock()
		if mode == claimHosted {
			return nil, fmt.Errorf("%w: %s", ErrRepoNotFound, id)
		}
		// Dropped while we waited; an install starts a fresh entry.
	}
}

// lookup finds id's entry — or, outside claimHosted, enters a new one,
// locked, and reports it fresh.
func (s *Service) lookup(id string, mode claimMode) (e *repoEntry, fresh bool, err error) {
	if mode == claimHosted {
		s.mu.RLock()
		e = s.entries[id]
		s.mu.RUnlock()
		if e == nil {
			err = fmt.Errorf("%w: %s", ErrRepoNotFound, id)
		}
		return e, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e = s.entries[id]; e != nil {
		if mode == claimNew {
			return nil, false, fmt.Errorf("%w: %s", ErrRepoExists, id)
		}
		return e, false, nil
	}
	if stem := repoFileStem(id); s.unloaded[stem] {
		if mode == claimNew {
			return nil, false, fmt.Errorf("%w: %s failed to load at start-up and its files are kept", ErrRepoExists, id)
		}
		if err := s.durable.quarantine(stem); err != nil {
			return nil, false, err
		}
		delete(s.unloaded, stem)
	}
	e = &repoEntry{id: id}
	e.mu.Lock()
	s.entries[id] = e
	s.repoGauge.Set(int64(len(s.entries)))
	return e, true, nil
}

// await locks e and waits out its in-flight load, if any — the one place
// anything blocks on a latch. It reports whether e is still hosted; e.mu is
// held on return either way.
func (e *repoEntry) await() bool {
	e.mu.Lock()
	for e.loading != nil {
		ch := e.loading
		e.mu.Unlock()
		<-ch
		e.mu.Lock()
	}
	return !e.dropped
}

// latch marks a load of e in flight and releases e.mu, which claim left
// held. settle releases the latch.
func (e *repoEntry) latch() chan struct{} {
	ch := make(chan struct{})
	e.loading = ch
	e.mu.Unlock()
	return ch
}

// settle releases the latch taken by latch, admitting repo unless the load
// failed (err != nil leaves the entry as it was). Admission is the one way
// into residence: governor, tap and recount first, so no request sees the
// repository half set up; then it is published, joins the resident set and
// the budget is checked — never evicting e itself. pin pins it for the
// caller.
func (s *Service) settle(e *repoEntry, ch chan struct{}, repo *Repository, err error, pin bool) error {
	if err == nil {
		repo.setGovernor(s.gov)
		if s.tap != nil {
			repo.setTap(s.tap)
		}
		s.gov.addRepo(repo)
	}
	e.mu.Lock()
	e.loading = nil
	if err == nil {
		e.repo = repo
		e.lastUsed = s.clock.Add(1)
		if pin {
			e.pins++
		}
	}
	e.mu.Unlock()
	close(ch)
	if err != nil {
		return err
	}
	s.activeMu.Lock()
	s.active[e] = struct{}{}
	s.activeGauge.Set(int64(len(s.active)))
	s.activeMu.Unlock()
	s.maybeEvict(e)
	return nil
}

// retire is the one way out of residence, called with e.mu held: the
// governor is credited, the repository closed — which seals its write-ahead
// log; the on-disk snapshot+WAL image already holds every acknowledged
// mutation — and e leaves the resident set. Holding e.mu keeps a new
// activation from reopening the log before it is sealed. A cold entry is a
// no-op.
func (s *Service) retire(e *repoEntry) error {
	repo := e.repo
	if repo == nil {
		return nil
	}
	e.repo = nil
	s.gov.removeRepo(repo)
	err := repo.Close()
	s.activeMu.Lock()
	delete(s.active, e)
	s.activeGauge.Set(int64(len(s.active)))
	s.activeMu.Unlock()
	return err
}

// unregister marks e dropped and takes it out of the catalog; e.mu is held.
func (s *Service) unregister(e *repoEntry) {
	e.dropped = true
	s.mu.Lock()
	if s.entries[e.id] == e {
		delete(s.entries, e.id)
		s.repoGauge.Set(int64(len(s.entries)))
	}
	s.mu.Unlock()
}

// activate loads cold entry e from disk — snapshot, then WAL replay — under
// its latch and admits it: the path of an Acquire that finds e cold and of
// every repository a durable service without a budget opens with. e.mu is
// held (claim's state) and released on return.
func (s *Service) activate(e *repoEntry, pin bool) (*Repository, walReplay, error) {
	ch := e.latch()
	start := time.Now()
	_, sp := obs.StartSpan(context.Background(), obs.Default(), "repo/activate")
	repo, rec, err := s.durable.loadRepo(sp, e.id)
	sp.End()
	if err != nil {
		err = fmt.Errorf("core: activate %s: %w", e.id, err)
	} else {
		s.activations.Add(1)
		s.activationsC.Inc()
		s.activationH.Observe(time.Since(start).Seconds())
	}
	return repo, rec, s.settle(e, ch, repo, err, pin)
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
		_ = s.evictEntry(victim) // pinned since the scan: the next scan skips it
	}
}

// evictEntry retires e back to cold unless requests pin it; a cold entry
// (dropped ones included: they are retired under the same lock that marks
// them) is left as it is.
func (s *Service) evictEntry(e *repoEntry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.repo == nil {
		return nil
	}
	if e.pins > 0 {
		return fmt.Errorf("core: repository %s is pinned by in-flight requests", e.id)
	}
	// A close error cannot lose acknowledged data — the WAL sync policy
	// already governed what an ack meant — so eviction proceeds and the
	// error is only counted.
	if err := s.retire(e); err != nil {
		s.evictErrorsC.Inc()
	}
	s.evictions.Add(1)
	s.evictionsC.Inc()
	return nil
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
	return s.evictEntry(e)
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
