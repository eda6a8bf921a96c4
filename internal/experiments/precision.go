package experiments

import (
	"fmt"
	"strconv"

	"mie/internal/cluster"
	"mie/internal/core"
	"mie/internal/dataset"
	"mie/internal/eval"
	"mie/internal/imaging"
	"mie/internal/index"
)

// PrecisionRow is one column of Table III: the mean average precision a
// retrieval system achieves on the Holidays-style benchmark.
type PrecisionRow struct {
	System string
	MAP    float64
}

// PrecisionExperiment reproduces Table III: retrieval precision of
// plaintext BOVW retrieval vs the three encrypted schemes on the same
// image-only near-duplicate benchmark. The paper's finding — encryption
// does not meaningfully hurt precision — shows up as all four numbers
// being within a point or two of each other.
func PrecisionExperiment(cfg Config) ([]PrecisionRow, error) {
	set := dataset.Holidays(dataset.HolidaysParams{
		Groups:    cfg.HolidayGroups,
		PerGroup:  cfg.HolidayPerGroup,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed,
	})

	// Plaintext reference: Euclidean BOVW over raw descriptors.
	plain, err := plaintextSearch(cfg, set)
	if err != nil {
		return nil, fmt.Errorf("experiments: plaintext precision: %w", err)
	}
	m, err := holidaysMAP(plain, set, len(set.Objects))
	if err != nil {
		return nil, err
	}
	rows := []PrecisionRow{{System: SchemePlain, MAP: m}}

	for _, name := range Schemes() {
		stack, err := newScheme(name, cfg, nil, "prec-"+name)
		if err != nil {
			return nil, err
		}
		if m, err = trainedMAP(stack, set); err != nil {
			return nil, err
		}
		rows = append(rows, PrecisionRow{System: name, MAP: m})
	}
	return rows, nil
}

// trainedMAP adds the Holidays corpus to s, trains it and scores its
// rankings.
func trainedMAP(s scheme, set *dataset.HolidaysSet) (float64, error) {
	for _, obj := range set.Objects {
		if err := s.add(obj); err != nil {
			return 0, err
		}
	}
	if err := s.train(); err != nil {
		return 0, err
	}
	return holidaysMAP(s.search, set, len(set.Objects))
}

// holidaysMAP ranks each Holidays query through search, which returns the
// ids of the top k objects best first, and scores the rankings' mAP against
// the queries' ground truth.
func holidaysMAP(search func(query *core.Object, k int) ([]string, error), set *dataset.HolidaysSet, k int) (float64, error) {
	ranks := make([][]string, len(set.Queries))
	truths := make([][]string, len(set.Queries))
	for i, q := range set.Queries {
		var err error
		if ranks[i], err = search(q.Query, k); err != nil {
			return 0, err
		}
		truths[i] = q.Relevant
	}
	return eval.MeanAveragePrecision(ranks, truths)
}

// plaintextSearch builds the unencrypted reference system over the Holidays
// corpus — Euclidean vocabulary tree over raw descriptors, TF-IDF inverted
// index — and returns its search.
func plaintextSearch(cfg Config, set *dataset.HolidaysSet) (func(query *core.Object, k int) ([]string, error), error) {
	pyr := cfg.pyramid()
	descs := make(map[string][][]float64, len(set.Objects))
	var sample [][]float64
	for _, obj := range set.Objects { // corpus order is already deterministic
		d := imaging.Extract(obj.Image, pyr)
		descs[obj.ID] = d
		sample = append(sample, d...)
	}
	euclid := func(ps [][]float64, kk int, seed int64) ([][]float64, []int, error) {
		res, err := cluster.KMeans(ps, kk, cluster.Options{Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return res.Centroids, res.Assignments, nil
	}
	dist := func(a, b []float64) float64 {
		var sum float64
		for i := range a {
			d := a[i] - b[i]
			sum += d * d
		}
		return sum
	}
	tree, err := cluster.TrainVocabulary(sample, cfg.vocab(), euclid, dist)
	if err != nil {
		return nil, err
	}
	ix := index.New()
	for id, d := range descs {
		hist := tree.QuantizeAll(d)
		terms := make(map[index.Term]uint64, len(hist))
		for w, f := range hist {
			terms[index.Term("vw:"+strconv.Itoa(w))] = f
		}
		ix.Add(index.DocID(id), terms)
	}
	return func(query *core.Object, k int) ([]string, error) {
		hist := tree.QuantizeAll(imaging.Extract(query.Image, pyr))
		terms := make(map[index.Term]uint64, len(hist))
		for w, f := range hist {
			terms[index.Term("vw:"+strconv.Itoa(w))] = f
		}
		return resultIDs(ix.Search(index.SortedTerms(terms), k)), nil
	}, nil
}
