package attack

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/dpe"
	"mie/internal/text"
)

// openTarget opens a durable repository under a Recorder, closed at the end
// of the test.
func openTarget(t *testing.T) (*core.Repository, *Recorder) {
	t.Helper()
	svc, repo, rec, err := OpenTarget(t.TempDir(), "attacked", core.RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return repo, rec
}

// observations returns what rec saw, failing the test on a decode error.
func observations(t *testing.T, rec *Recorder) []Observation {
	t.Helper()
	obs, err := rec.Observations()
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

// buildCorpus runs real MIE updates over a text corpus and returns the
// server's observations plus the ground-truth keyword->token mapping.
func buildCorpus(t *testing.T, docs map[string]string) ([]Observation, map[string]dpe.Token, map[string]map[string]uint64) {
	t.Helper()
	var master crypto.Key
	master[0] = 7
	client, err := core.NewClient(core.ClientConfig{Key: core.RepositoryKey{Master: master}})
	if err != nil {
		t.Fatal(err)
	}
	repo, rec := openTarget(t)
	sparse := dpe.NewSparse(crypto.DeriveKey(master, "rk2"))
	truth := make(map[string]dpe.Token)
	plaintexts := make(map[string]map[string]uint64, len(docs))
	var dk crypto.Key
	dk[0] = 9
	for id, body := range docs {
		obj := &core.Object{ID: id, Owner: "u", Text: body}
		up, err := client.PrepareUpdate(obj, dk)
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.UpdateContext(context.Background(), up); err != nil {
			t.Fatal(err)
		}
		hist := text.Extract(body)
		kw := make(map[string]uint64, len(hist))
		for _, term := range hist {
			kw[term.Word] = term.Freq
			truth[term.Word] = sparse.Encode(term.Word)
		}
		plaintexts[id] = kw
	}
	return observations(t, rec), truth, plaintexts
}

// TestAttackObservesTheRecordStream: over a seeded run of inserts,
// overwrites and removes, the recorder holds exactly one observation per id
// ever updated — removed ids included — carrying that id's last update's
// token frequencies.
func TestAttackObservesTheRecordStream(t *testing.T) {
	var master crypto.Key
	master[0] = 7
	client, err := core.NewClient(core.ClientConfig{Key: core.RepositoryKey{Master: master}})
	if err != nil {
		t.Fatal(err)
	}
	repo, rec := openTarget(t)
	words := []string{"river", "stone", "bridge", "lantern", "harbor", "meadow", "falcon", "copper"}
	rng := rand.New(rand.NewSource(29))
	last := make(map[string]map[dpe.Token]uint64)
	removed := 0
	var dk crypto.Key
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("d%02d", rng.Intn(40))
		if rng.Intn(5) == 0 {
			if _, seen := last[id]; seen {
				removed++
			}
			if err := repo.RemoveContext(context.Background(), id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		body := ""
		for n := 1 + rng.Intn(6); n > 0; n-- {
			body += words[rng.Intn(len(words))] + " "
		}
		up, err := client.PrepareUpdate(&core.Object{ID: id, Owner: "u", Text: body}, dk)
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.UpdateContext(context.Background(), up); err != nil {
			t.Fatal(err)
		}
		last[id] = up.TextTokens
	}
	if removed == 0 {
		t.Fatal("trace removed no updated id")
	}
	obs := observations(t, rec)
	if len(obs) != len(last) {
		t.Fatalf("%d observations, want one per updated id (%d)", len(obs), len(last))
	}
	for _, o := range obs {
		if want, ok := last[o.ObjectID]; !ok || !reflect.DeepEqual(o.Tokens, want) {
			t.Errorf("%s: observed %v, last update carried %v", o.ObjectID, o.Tokens, want)
		}
	}
}

func TestFullKnowledgeRecoversUniqueSignatures(t *testing.T) {
	docs := map[string]string{
		"d1": "apple banana banana cherry",
		"d2": "apple cherry cherry cherry dragonfruit",
		"d3": "banana dragonfruit elderberry",
	}
	obs, truth, plain := buildCorpus(t, docs)
	var known []KnownDoc
	for id, kw := range plain {
		known = append(known, KnownDoc{DocID: id, Keywords: kw})
	}
	rec := RecoverKeywords(obs, known)
	rate, correct, total := Evaluate(rec, truth)
	// Every keyword here has a distinct frequency signature across the three
	// docs, so full document knowledge recovers everything.
	if rate != 1 {
		t.Errorf("full-knowledge recovery = %v (%d/%d): %+v", rate, correct, total, rec.CandidateCounts)
	}
	// And every committed mapping must be correct (no false positives).
	for w, tok := range rec.Mapping {
		if truth[w] != tok {
			t.Errorf("wrong mapping for %q", w)
		}
	}
}

func TestAmbiguousSignaturesStayUnresolved(t *testing.T) {
	// "alpha" and "beta" co-occur with identical frequencies everywhere: no
	// frequency analysis can split them; the attack must not guess.
	docs := map[string]string{
		"d1": "alpha beta gamma",
		"d2": "alpha beta",
	}
	obs, truth, plain := buildCorpus(t, docs)
	var known []KnownDoc
	for id, kw := range plain {
		known = append(known, KnownDoc{DocID: id, Keywords: kw})
	}
	rec := RecoverKeywords(obs, known)
	if _, ok := rec.Mapping["alpha"]; ok {
		t.Error("attack committed to an ambiguous keyword")
	}
	if rec.CandidateCounts["alpha"] != 2 {
		t.Errorf("alpha candidates = %d, want 2", rec.CandidateCounts["alpha"])
	}
	if tok, ok := rec.Mapping["gamma"]; !ok || truth["gamma"] != tok {
		t.Error("unique keyword gamma not recovered")
	}
	_, correct, _ := Evaluate(rec, truth)
	if correct != 1 {
		t.Errorf("correct = %d, want 1 (only gamma)", correct)
	}
}

func TestPartialKnowledgeRecoversLess(t *testing.T) {
	docs := make(map[string]string, 40)
	for i := 0; i < 40; i++ {
		// unique appears twice, special once: distinct frequency signatures,
		// so full document knowledge can resolve them.
		docs[fmt.Sprintf("d%02d", i)] = fmt.Sprintf(
			"common filler words everywhere unique%02d unique%02d special%02d rare%02d", i, i, i, i%7)
	}
	obs, truth, plain := buildCorpus(t, docs)
	recoverAt := func(n int) float64 {
		var known []KnownDoc
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("d%02d", i)
			known = append(known, KnownDoc{DocID: id, Keywords: plain[id]})
		}
		rec := RecoverKeywords(obs, known)
		rate, _, _ := Evaluate(rec, truth)
		return rate
	}
	low := recoverAt(4)   // 10% knowledge
	high := recoverAt(40) // 100% knowledge
	if low >= high {
		t.Errorf("recovery should grow with knowledge: %v vs %v", low, high)
	}
	if low > 0.25 {
		t.Errorf("10%% knowledge recovered %v of the vocabulary — too strong", low)
	}
	if high < 0.5 {
		t.Errorf("full knowledge recovered only %v", high)
	}
}

func TestNoKnowledgeNoRecovery(t *testing.T) {
	docs := map[string]string{"d1": "alpha beta gamma"}
	obs, truth, _ := buildCorpus(t, docs)
	rec := RecoverKeywords(obs, nil)
	rate, _, _ := Evaluate(rec, truth)
	if rate != 0 || len(rec.Mapping) != 0 {
		t.Errorf("adversary with no background knowledge recovered %v", rate)
	}
}

func TestEvaluateEmptyTruth(t *testing.T) {
	rate, correct, total := Evaluate(&Recovery{Mapping: map[string]dpe.Token{}}, nil)
	if rate != 0 || correct != 0 || total != 0 {
		t.Errorf("empty evaluation: %v %d %d", rate, correct, total)
	}
}
