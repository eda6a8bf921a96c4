package core

import (
	"errors"
	"fmt"

	"mie/internal/dpe"
)

// White-box accessors that only this package's tests call.

// updateTokenFreq returns the total frequency the server learned for a
// token through updates — the freq(w) update leakage that distinguishes MIE
// in Table I.
func (l *Leakage) updateTokenFreq(tok dpe.Token) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.updateTokens[tok]
}

// searchTokenCount returns how many times a token id appeared in queries.
func (l *Leakage) searchTokenCount(tok dpe.Token) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.searchTokens[tok]
}

// accessCount returns how many times a live object id was returned/read; a
// removed id reads 0.
func (l *Leakage) accessCount(objectID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accessed[objectID]
}

// codebookSize is the number of visual (or audio) words of modality m's
// codebook, 0 before its first Train.
func (r *Repository) codebookSize(m Modality) int {
	for _, eng := range r.state.Load().engines {
		if eng.Modality() == m {
			return eng.CodebookSize()
		}
	}
	return 0
}

// usageOf returns tenant's current footprint (zero for unknown tenants).
func (g *TenantGovernor) usageOf(tenant string) TenantUsage {
	if g == nil {
		return TenantUsage{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.usage[tenant]
}

// evictRepository forces one repository cold, regardless of the memory
// budget — the tests' way into crash-during-eviction scenarios. It fails if
// the repository is pinned by in-flight requests; evicting an already-cold
// repository is a no-op.
func (s *Service) evictRepository(id string) error {
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
