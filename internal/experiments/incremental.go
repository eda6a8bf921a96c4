package experiments

import (
	"fmt"
	"io"
	"time"

	"mie/internal/core"
	"mie/internal/dataset"
	"mie/internal/eval"
)

// IncrementalReport is the BENCH_incremental.json document: the cost of
// retraining after a small churn under the incremental train/index pipeline
// versus the pre-segmentation behavior (full re-cluster + index rebuild),
// plus proof that the shortcut does not cost retrieval precision.
type IncrementalReport struct {
	// Corpus is the object count at retrain time (base set + churn
	// additions).
	Corpus int `json:"corpus"`
	// ChurnDocs is how many objects changed between the two trains
	// (fresh uploads + re-uploads of existing ids).
	ChurnDocs     int     `json:"churn_docs"`
	ChurnFraction float64 `json:"churn_fraction"`
	// InitialTrainMs is the first Train over the base corpus — always a
	// full build, identical for both pipelines.
	InitialTrainMs float64 `json:"initial_train_ms"`
	// FullRetrainMs is the second Train with IncrementalOptions.Disable
	// set: re-cluster everything, rebuild every index.
	FullRetrainMs float64 `json:"full_retrain_ms"`
	// IncrementalRetrainMs is the same churn retrained through the
	// incremental path: warm-started codebook refinement over the delta,
	// delta docs re-indexed into the carried segmented indexes.
	IncrementalRetrainMs float64 `json:"incremental_retrain_ms"`
	// Speedup is FullRetrainMs / IncrementalRetrainMs.
	Speedup float64 `json:"speedup"`
	// Mode is how the incremental repository's second Train resolved
	// ("incremental", or "full" if the drift guard fired).
	Mode      string `json:"incremental_mode"`
	DeltaDocs int    `json:"delta_docs"`
	// Drift of the warm-started refinement (see cluster.DriftReport).
	DriftMeanShift  float64 `json:"drift_mean_shift"`
	DriftReassigned float64 `json:"drift_reassigned_fraction"`
	// MAP on the Holidays queries after the retrain, per pipeline; the
	// paper-level claim is that these stay within a couple of points.
	MAPFullRebuild float64 `json:"map_full_rebuild"`
	MAPIncremental float64 `json:"map_incremental"`
	MAPDelta       float64 `json:"map_delta"`
	// Segment layout of the incremental repository after the retrain
	// (summed over modalities), before compaction.
	SealedSegments int `json:"sealed_segments"`
	MemtableDocs   int `json:"memtable_docs"`
	DeadDocs       int `json:"dead_docs"`
	// CompactMs is one synchronous full compaction of the incremental
	// repository; MAPCompacted re-runs the queries afterwards (must match
	// MAPIncremental — compaction only drops garbage).
	CompactMs    float64 `json:"compact_ms"`
	MAPCompacted float64 `json:"map_compacted"`
}

// IncrementalExperiment measures the tentpole claim of the segmented-index
// refactor: after a ~10% churn, Train should cost a small delta pass, not a
// full rebuild. Two identical repositories ingest the same Holidays corpus
// and the same churn; one retrains incrementally, the other is forced
// through the legacy full path, and both answer the same queries.
func IncrementalExperiment(cfg Config) (*IncrementalReport, error) {
	set := dataset.Holidays(dataset.HolidaysParams{
		Groups:    cfg.HolidayGroups,
		PerGroup:  cfg.HolidayPerGroup,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed,
	})
	// Churn: ~10% of the corpus, half fresh scenes (drawn from a disjoint
	// Holidays sample so they are in-distribution), half re-uploads of
	// existing objects (the "user edited a photo's envelope" case).
	churn := len(set.Objects) / 10
	if churn < 2 {
		churn = 2
	}
	additions := churn / 2
	replacements := churn - additions
	// Each extra group contributes PerGroup-1 corpus objects (the query is
	// held out of Objects by the Holidays protocol).
	perGroup := cfg.HolidayPerGroup
	if perGroup < 2 {
		perGroup = 3
	}
	extra := dataset.Holidays(dataset.HolidaysParams{
		Groups:    (additions + perGroup - 2) / (perGroup - 1),
		PerGroup:  perGroup,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed + 101,
	})
	if len(extra.Objects) < additions {
		return nil, fmt.Errorf("experiments: churn sample too small: %d < %d", len(extra.Objects), additions)
	}

	inc, err := newMIERepo(cfg, nil, "inc-train", core.RepositoryOptions{Vocab: cfg.vocab()})
	if err != nil {
		return nil, err
	}
	full, err := newMIERepo(cfg, nil, "inc-rebuild", core.RepositoryOptions{
		Vocab:       cfg.vocab(),
		Incremental: core.IncrementalOptions{Disable: true},
	})
	if err != nil {
		return nil, err
	}
	stacks := []*mieStack{inc, full}

	report := &IncrementalReport{ChurnDocs: churn}
	for _, s := range stacks {
		for _, obj := range set.Objects {
			if err := s.add(obj); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := s.repo.Train(); err != nil {
			return nil, err
		}
		if s == inc {
			report.InitialTrainMs = ms(time.Since(t0))
		}
	}

	// Apply the identical churn to both repositories.
	for _, s := range stacks {
		for i := 0; i < additions; i++ {
			obj := *extra.Objects[i]
			obj.ID = fmt.Sprintf("churn-%d", i)
			if err := s.add(&obj); err != nil {
				return nil, err
			}
		}
		for i := 0; i < replacements; i++ {
			j := (i * len(set.Objects)) / replacements
			if err := s.add(set.Objects[j]); err != nil {
				return nil, err
			}
		}
	}
	report.Corpus = inc.repo.Size()
	report.ChurnFraction = float64(churn) / float64(report.Corpus)

	t0 := time.Now()
	if err := inc.repo.Train(); err != nil {
		return nil, err
	}
	report.IncrementalRetrainMs = ms(time.Since(t0))
	if info := inc.repo.LastTrain(); info != nil {
		report.Mode = info.Mode
		report.DeltaDocs = info.DeltaDocs
		report.DriftMeanShift = info.Drift.MeanShift
		report.DriftReassigned = info.Drift.ReassignedFraction
	}
	t0 = time.Now()
	if err := full.repo.Train(); err != nil {
		return nil, err
	}
	report.FullRetrainMs = ms(time.Since(t0))
	if report.IncrementalRetrainMs > 0 {
		report.Speedup = report.FullRetrainMs / report.IncrementalRetrainMs
	}
	for _, s := range inc.repo.IndexStats() {
		report.SealedSegments += s.SealedSegments
		report.MemtableDocs += s.MemtableDocs
		report.DeadDocs += s.DeadDocs
	}

	truths := make([][]string, len(set.Queries))
	for i, q := range set.Queries {
		truths[i] = q.Relevant
	}
	k := report.Corpus
	if report.MAPIncremental, err = holidaysMAP(inc, set, truths, k); err != nil {
		return nil, err
	}
	if report.MAPFullRebuild, err = holidaysMAP(full, set, truths, k); err != nil {
		return nil, err
	}
	report.MAPDelta = report.MAPIncremental - report.MAPFullRebuild
	if report.MAPDelta < 0 {
		report.MAPDelta = -report.MAPDelta
	}

	t0 = time.Now()
	inc.repo.CompactNow()
	report.CompactMs = ms(time.Since(t0))
	if report.MAPCompacted, err = holidaysMAP(inc, set, truths, k); err != nil {
		return nil, err
	}
	return report, nil
}

// holidaysMAP runs the benchmark's queries against one MIE stack and scores
// the rankings.
func holidaysMAP(s *mieStack, set *dataset.HolidaysSet, truths [][]string, k int) (float64, error) {
	ranks := make([][]string, len(set.Queries))
	for i, q := range set.Queries {
		query, err := s.client.PrepareQuery(q.Query, k)
		if err != nil {
			return 0, err
		}
		hits, err := s.repo.Search(query)
		if err != nil {
			return 0, err
		}
		ids := make([]string, len(hits))
		for j, h := range hits {
			ids[j] = h.ObjectID
		}
		ranks[i] = ids
	}
	return eval.MeanAveragePrecision(ranks, truths)
}

// WriteIncrementalReport renders the report for stdout.
func WriteIncrementalReport(w io.Writer, r *IncrementalReport) {
	fmt.Fprintln(w, "Incremental training: retrain cost after churn vs full rebuild")
	fmt.Fprintf(w, "  corpus %d, churn %d docs (%.1f%%); initial full train %.1f ms\n",
		r.Corpus, r.ChurnDocs, 100*r.ChurnFraction, r.InitialTrainMs)
	fmt.Fprintf(w, "  retrain: full rebuild %.1f ms, incremental %.1f ms -> %.1fx speedup (mode=%s, delta=%d docs)\n",
		r.FullRetrainMs, r.IncrementalRetrainMs, r.Speedup, r.Mode, r.DeltaDocs)
	fmt.Fprintf(w, "  drift: mean centroid shift %.4f, reassigned fraction %.4f\n",
		r.DriftMeanShift, r.DriftReassigned)
	fmt.Fprintf(w, "  mAP: full rebuild %.4f, incremental %.4f (delta %.4f); after compaction %.4f\n",
		r.MAPFullRebuild, r.MAPIncremental, r.MAPDelta, r.MAPCompacted)
	fmt.Fprintf(w, "  segments before compaction: %d sealed, %d memtable docs, %d dead; compaction %.1f ms\n",
		r.SealedSegments, r.MemtableDocs, r.DeadDocs, r.CompactMs)
}
