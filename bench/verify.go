package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"mie/internal/core"
)

// failures counts failed operations and failed checks of one run and keeps
// the first few messages. A run with any failure exits non-zero.
type failures struct {
	mu    sync.Mutex
	count int
	first []string
}

const keptFailures = 8

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.first) < keptFailures {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *failures) n() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count
}

// checkHits is the per-search check: between 1 and k hits, scores
// non-increasing.
func checkHits(hits []core.SearchHit, k int) error {
	if len(hits) < 1 || len(hits) > k {
		return fmt.Errorf("%d hits, want 1..%d", len(hits), k)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			return fmt.Errorf("hit %d (%s, %v) outranks hit %d (%s, %v)", i, hits[i].ObjectID, hits[i].Score, i-1, hits[i-1].ObjectID, hits[i-1].Score)
		}
	}
	return nil
}

// hasObject reports whether id is among the hits.
func hasObject(hits []core.SearchHit, id string) bool {
	for _, h := range hits {
		if h.ObjectID == id {
			return true
		}
	}
	return false
}

// Retrieval is ranked, not exact: with k = 10 a query built from a stored
// object's own content finds that object most of the time, not always
// (objects of one topic can tie on every visual word). A run is wrong when
// fewer than minFoundShare of such queries find their object.
//
// On the seed commit a node asked the same query twice does not always
// return the same list: per-modality scores are summed in map-iteration
// order, objects whose scores are mathematically equal come out in either
// order, and rank fusion turns the swapped ranks into different fused scores
// (about one query in twelve on search-large at the full scale). So the same
// query answered on three paths can differ without any replication fault.
// The parity check therefore compares only queries on which the leader,
// asked three times, agrees with itself, and tolerates a small share of
// mismatches among those (a query can pass that screen by luck); a real fault
// — a stale or differently trained follower, a misrouted read — differs on
// most queries. A run is wrong when more than maxParityMismatchShare of the
// stable sampled queries differ between paths, or when no query is stable.
const (
	minFoundShare          = 0.90
	maxParityMismatchShare = 0.10
)

// checkFoundShare fails when too few of the searches that looked for a
// known stored object found it.
func checkFoundShare(what string, found, looked int) error {
	if looked > 0 && float64(found) < minFoundShare*float64(looked) {
		return fmt.Errorf("only %d of %d %s returned the object they looked for", found, looked, what)
	}
	return nil
}

// checkParityShare fails when too many sampled queries were answered
// differently on different paths.
func checkParityShare(mismatched, stable int) error {
	if stable == 0 {
		return errors.New("no sampled query was answered the same way twice by the leader")
	}
	if float64(mismatched) > maxParityMismatchShare*float64(stable) {
		return fmt.Errorf("%d of %d stable sampled queries were answered differently by router, leader and follower", mismatched, stable)
	}
	return nil
}

// sameHits reports whether two ranked lists hold the same (id, score) pairs
// in the same order.
func sameHits(a, b []core.SearchHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ObjectID != b[i].ObjectID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// checkParity compares the ranked lists one query got through the router,
// in process on the leader and in process on the follower.
func checkParity(paths map[string][]core.SearchHit) error {
	for _, name := range []string{"router", "follower"} {
		if !sameHits(paths[name], paths["leader"]) {
			return fmt.Errorf("%s returned %s, leader %s", name, describeHits(paths[name]), describeHits(paths["leader"]))
		}
	}
	return nil
}

func describeHits(hits []core.SearchHit) string {
	out := "["
	for i, h := range hits {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%.6g", h.ObjectID, h.Score)
	}
	return out + "]"
}

// Ledger states other than a pool item index.
const (
	ledgerRemoved = -1 // removal acknowledged
	ledgerUnknown = -2 // an operation on the id failed; its state is not checked
)

// checkLedger compares a store against the ledger of acknowledged
// mutations: every id whose last acknowledged operation was a write must be
// present (with exactly the acknowledged ciphertext when want returns one),
// every id whose last acknowledged operation was a removal must be absent,
// and the store must hold exactly as many objects as the ledger has live.
// It returns one error per violation.
func checkLedger(ledger map[string]int, size int, get func(id string) ([]byte, error), want func(item int) []byte) []error {
	var errs []error
	live, unknown := 0, 0
	for id, state := range ledger {
		switch state {
		case ledgerUnknown:
			unknown++
		case ledgerRemoved:
			if _, err := get(id); !errors.Is(err, core.ErrUnknownObject) {
				errs = append(errs, fmt.Errorf("removed object %s is back (get: %v)", id, err))
			}
		default:
			live++
			ct, err := get(id)
			if err != nil {
				errs = append(errs, fmt.Errorf("acknowledged object %s lost: %w", id, err))
				continue
			}
			if w := want(state); w != nil && !bytes.Equal(ct, w) {
				errs = append(errs, fmt.Errorf("object %s holds %d bytes that are not the acknowledged ciphertext", id, len(ct)))
			}
		}
	}
	if size < live || size > live+unknown {
		errs = append(errs, fmt.Errorf("store holds %d objects, ledger has %d live (+%d unknown)", size, live, unknown))
	}
	return errs
}
