package experiments

import (
	"context"
	"fmt"
	"io"
	"os"

	"mie/internal/attack"
	"mie/internal/core"
	"mie/internal/dataset"
	"mie/internal/dpe"
	"mie/internal/text"
)

// AttackRow is one point of the §V-A security experiment: keyword recovery
// achieved by the frequency-signature leakage-abuse adversary at a given
// fraction of known documents.
type AttackRow struct {
	KnownFraction float64
	RecoveryRate  float64
	Recovered     int
	Vocabulary    int
}

// AttackExperiment runs the passive leakage-abuse attack of internal/attack
// against a real MIE repository built from a large-vocabulary text corpus,
// sweeping the adversary's document knowledge. The adversary's view is the
// durable record stream the server logged, decoded by an attack.Recorder. The paper's claim (§V-A),
// citing Cash et al., is that passive attacks demand near-total document
// knowledge (~95% known documents for ~58% query recovery); the measured
// curve here lands on the same shape — recovery grows slowly and substantial
// recovery requires knowing most of the corpus.
func AttackExperiment(cfg Config) ([]AttackRow, error) {
	corpus := dataset.SyntheticText(dataset.SyntheticTextParams{
		N:    cfg.SearchRepoSize * 5,
		Seed: cfg.Seed,
	})
	// Text-only repository: the attack targets the sparse (keyword) leakage.
	client, err := core.NewClient(core.ClientConfig{
		Key: core.RepositoryKey{Master: masterKey(1)},
	})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "mie-attack-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	svc, repo, recorder, err := attack.OpenTarget(dir, "attack-target", core.RepositoryOptions{})
	if err != nil {
		return nil, err
	}
	defer func() { _ = svc.Close() }()
	sparse := dpe.NewSparse(mieSparseKey())
	truth := make(map[string]dpe.Token)
	plaintexts := make([]attack.KnownDoc, 0, len(corpus))
	for _, obj := range corpus {
		up, err := client.PrepareUpdate(obj, dataKey())
		if err != nil {
			return nil, err
		}
		if err := repo.UpdateContext(context.Background(), up); err != nil {
			return nil, err
		}
		hist := text.Extract(obj.Text)
		kw := make(map[string]uint64, len(hist))
		for _, term := range hist {
			kw[term.Word] = term.Freq
			truth[term.Word] = sparse.Encode(term.Word)
		}
		plaintexts = append(plaintexts, attack.KnownDoc{DocID: obj.ID, Keywords: kw})
	}
	observations, err := recorder.Observations()
	if err != nil {
		return nil, err
	}

	var rows []AttackRow
	for _, frac := range []float64{0.10, 0.25, 0.50, 0.75, 0.95, 1.0} {
		n := int(frac * float64(len(plaintexts)))
		rec := attack.RecoverKeywords(observations, plaintexts[:n])
		rate, correct, total := attack.Evaluate(rec, truth)
		rows = append(rows, AttackRow{
			KnownFraction: frac,
			RecoveryRate:  rate,
			Recovered:     correct,
			Vocabulary:    total,
		})
	}
	return rows, nil
}

// WriteAttackReport prints the attack sweep.
func WriteAttackReport(w io.Writer, rows []AttackRow) {
	fmt.Fprintln(w, "== §V-A: passive leakage-abuse attack (document-knowledge adversary) ==")
	fmt.Fprintf(w, "%-18s %14s %12s\n", "Known documents", "Recovery(%)", "Keywords")
	for _, r := range rows {
		fmt.Fprintf(w, "%17.0f%% %14.2f %7d/%d\n",
			r.KnownFraction*100, r.RecoveryRate*100, r.Recovered, r.Vocabulary)
	}
}
