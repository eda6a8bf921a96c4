package main

import (
	"testing"

	"mie/internal/core"
)

func hits(pairs ...any) []core.SearchHit {
	var out []core.SearchHit
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, core.SearchHit{ObjectID: pairs[i].(string), Score: pairs[i+1].(float64)})
	}
	return out
}

// failedRun turns checker verdicts into what a run reports, the way
// runWorkload does: every error is one failure, and any failure makes the
// command exit non-zero.
func failedRun(errs ...error) (failedShare float64, exit error) {
	fails := &failures{}
	for _, err := range errs {
		if err != nil {
			fails.add("%v", err)
		}
	}
	res := &result{Workload: "negative", Attempted: len(errs), Failed: fails.n(), Failures: fails.first}
	return float64(res.Failed) / float64(res.Attempted), failedError([]*result{res})
}

func expectBite(t *testing.T, what string, errs ...error) {
	t.Helper()
	share, exit := failedRun(errs...)
	if share <= 0 || exit == nil {
		t.Errorf("%s: failed share %v, exit error %v — the check did not bite", what, share, exit)
	}
}

func TestCheckersPassCorrectResults(t *testing.T) {
	good := hits("a", 3.0, "b", 2.0, "c", 2.0)
	ledger := map[string]int{"kept": 0, "gone": ledgerRemoved, "unsure": ledgerUnknown}
	store := map[string][]byte{"kept": []byte("ct-0")}
	get := func(id string) ([]byte, error) {
		if ct, ok := store[id]; ok {
			return ct, nil
		}
		return nil, core.ErrUnknownObject
	}
	want := func(int) []byte { return []byte("ct-0") }
	errs := []error{
		checkHits(good, 3),
		checkParity(map[string][]core.SearchHit{"router": good, "leader": good, "follower": good}),
		checkParityShare(1, 100),
		checkFoundShare("self-queries", 95, 100),
	}
	errs = append(errs, checkLedger(ledger, 1, get, want)...)
	if share, exit := failedRun(errs...); share != 0 || exit != nil {
		t.Errorf("correct results failed: share %v, %v", share, exit)
	}
}

func TestReorderedHitListBites(t *testing.T) {
	expectBite(t, "scores rising down the list", checkHits(hits("a", 1.0, "b", 2.0), 10))
	expectBite(t, "more hits than k", checkHits(hits("a", 3.0, "b", 2.0, "c", 1.0), 2))
	expectBite(t, "no hits", checkHits(nil, 10))
}

func TestLeaderFollowerMismatchBites(t *testing.T) {
	leader := hits("a", 3.0, "b", 2.0)
	for name, follower := range map[string][]core.SearchHit{
		"other order": hits("b", 3.0, "a", 2.0),
		"other score": hits("a", 3.0, "b", 1.5),
		"missing hit": hits("a", 3.0),
	} {
		err := checkParity(map[string][]core.SearchHit{"router": leader, "leader": leader, "follower": follower})
		if err == nil {
			t.Errorf("%s: follower %v passed as equal to leader %v", name, follower, leader)
		}
	}
	// A follower that disagrees on every stable query is a fault; so is a
	// leader that never agrees with itself.
	expectBite(t, "every stable query mismatched", checkParityShare(40, 40))
	expectBite(t, "just past the tolerated share", checkParityShare(11, 100))
	expectBite(t, "no stable query", checkParityShare(0, 0))
	expectBite(t, "self-queries mostly lost", checkFoundShare("self-queries", 89, 100))
}

func TestLostAndResurrectedObjectsBite(t *testing.T) {
	want := func(item int) []byte { return []byte{byte(item)} }
	store := map[string][]byte{"a": {0}, "b": {1}, "zombie": {2}}
	get := func(id string) ([]byte, error) {
		if ct, ok := store[id]; ok {
			return ct, nil
		}
		return nil, core.ErrUnknownObject
	}

	// A dropped acknowledged id.
	expectBite(t, "acknowledged id missing",
		checkLedger(map[string]int{"a": 0, "b": 1, "lost": 3}, 3, get, want)...)
	// A removed id that is back.
	expectBite(t, "removed id present",
		checkLedger(map[string]int{"a": 0, "b": 1, "zombie": ledgerRemoved}, 2, get, want)...)
	// An acknowledged id holding other bytes than were acknowledged.
	expectBite(t, "stale ciphertext",
		checkLedger(map[string]int{"a": 0, "b": 0}, 2, get, want)...)
	// A store holding objects nobody wrote.
	expectBite(t, "size beyond the ledger",
		checkLedger(map[string]int{"a": 0, "b": 1}, 5, get, want)...)
}
