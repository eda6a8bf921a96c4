package core

import (
	"sync"

	"mie/internal/dpe"
)

// Leakage records the information patterns the honest-but-curious server
// observes, mirroring the per-operation leakage functions of the ideal
// functionality F_MIE (Algorithm 4). It exists so tests can assert the
// leakage profile of Table I — MIE reveals ID(w), freq(w) at update time and
// ID(w), ID(d) at search time — and so the bench harness can report what
// each scheme exposed.
//
// It keeps aggregates only, so its size is bounded by the token vocabulary
// and the live object ids, never by the update history. The per-update view
// an attacker works from — ID(d), ID(w), freq(w) of each update — is the
// durable record stream itself (ReplicationTap, DecodeRecord).
type Leakage struct {
	mu sync.Mutex
	// updateTokens counts how often each deterministic token id was seen in
	// updates (ID(w) + freq(w) update leakage).
	updateTokens map[dpe.Token]uint64
	// searchTokens counts tokens observed in queries (ID(w) search leakage).
	searchTokens map[dpe.Token]uint64
	// accessed counts ID(d) access-pattern reveals per live object id. A
	// removed id's count is folded into retiredObjects.
	accessed map[string]int
	// retiredObjects is how many removed ids had been revealed at least once.
	retiredObjects int
	// Running totals behind Summary: the sum of updateTokens, the number of
	// repeat sightings in searchTokens, and every access reveal.
	updateTokenMass, searchTokenRepeats, accessReveals uint64
	// counters
	updates, removes, searches, trains int
}

func newLeakage() *Leakage {
	return &Leakage{
		updateTokens: make(map[dpe.Token]uint64),
		searchTokens: make(map[dpe.Token]uint64),
		accessed:     make(map[string]int),
	}
}

// recordUpdate counts one update's leakage and returns the revealed token-
// frequency mass (the freq(w) update leakage), for the telemetry counters.
func (l *Leakage) recordUpdate(up *Update) (tokenMass uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.updates++
	for tok, freq := range up.TextTokens {
		l.updateTokens[tok] += freq
		tokenMass += freq
	}
	l.updateTokenMass += tokenMass
	return tokenMass
}

// recordSearch counts one query's leakage and returns how many of its
// tokens the server had already seen in earlier queries — the search-pattern
// repeats that make queries linkable — and how many distinct token ids
// queries have revealed so far.
func (l *Leakage) recordSearch(q *Query) (repeats, distinct int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.searches++
	for _, t := range q.TextTokens {
		if l.searchTokens[t.Token] > 0 {
			repeats++
		}
		l.searchTokens[t.Token]++
	}
	l.searchTokenRepeats += uint64(repeats)
	return repeats, len(l.searchTokens)
}

// recordAccess counts one ID(d) access-pattern reveal.
func (l *Leakage) recordAccess(objectID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.accessed[objectID]++
	l.accessReveals++
}

// recordRemove counts one removal and retires the id's access count.
func (l *Leakage) recordRemove(objectID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.removes++
	l.retireLocked(objectID)
}

// retireLocked folds a removed id's access count into the retired totals; an
// id with no count is a no-op.
func (l *Leakage) retireLocked(objectID string) {
	if _, ok := l.accessed[objectID]; ok {
		delete(l.accessed, objectID)
		l.retiredObjects++
	}
}

func (l *Leakage) recordTrain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.trains++
}

// DistinctUpdateTokens returns how many deterministic token ids updates have
// revealed.
func (l *Leakage) DistinctUpdateTokens() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.updateTokens)
}

// LeakageSummary is the aggregate leakage profile of one repository — the
// quantities Table I says MIE reveals, counted rather than assumed, in the
// spirit of arXiv 1909.11624's "measure the leakage" position.
type LeakageSummary struct {
	// Operation counts.
	Updates  int `json:"updates"`
	Removes  int `json:"removes"`
	Searches int `json:"searches"`
	Trains   int `json:"trains"`
	// Update leakage: distinct deterministic token ids revealed by updates
	// (ID(w)) and their total revealed frequency mass (freq(w)).
	DistinctUpdateTokens int    `json:"distinct_update_tokens"`
	UpdateTokenMass      uint64 `json:"update_token_mass"`
	// Search-pattern leakage: distinct token ids queried (ID(w)) and total
	// repeat observations — queries whose tokens the server had seen before
	// and can therefore link.
	DistinctSearchTokens int    `json:"distinct_search_tokens"`
	SearchTokenRepeats   uint64 `json:"search_token_repeats"`
	// Access-pattern leakage: distinct object ids revealed (ID(d)) and
	// total reveals across searches and gets. An id removed after a reveal
	// and revealed again once re-added counts as two objects.
	DistinctObjectsAccessed int    `json:"distinct_objects_accessed"`
	AccessReveals           uint64 `json:"access_reveals"`
}

// Summary returns the repository's leakage profile; it is O(1).
func (l *Leakage) Summary() LeakageSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LeakageSummary{
		Updates:                 l.updates,
		Removes:                 l.removes,
		Searches:                l.searches,
		Trains:                  l.trains,
		DistinctUpdateTokens:    len(l.updateTokens),
		UpdateTokenMass:         l.updateTokenMass,
		DistinctSearchTokens:    len(l.searchTokens),
		SearchTokenRepeats:      l.searchTokenRepeats,
		DistinctObjectsAccessed: len(l.accessed) + l.retiredObjects,
		AccessReveals:           l.accessReveals,
	}
}
