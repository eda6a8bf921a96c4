package experiments

import (
	"fmt"
	"strconv"

	"mie/internal/cluster"
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
	k := len(set.Objects)
	truths := make([][]string, len(set.Queries))
	for i, q := range set.Queries {
		truths[i] = q.Relevant
	}

	var rows []PrecisionRow

	// Plaintext reference: Euclidean BOVW over raw descriptors.
	plainRanks, err := plaintextRankings(cfg, set, k)
	if err != nil {
		return nil, fmt.Errorf("experiments: plaintext precision: %w", err)
	}
	m, err := eval.MeanAveragePrecision(plainRanks, truths)
	if err != nil {
		return nil, err
	}
	rows = append(rows, PrecisionRow{System: SchemePlain, MAP: m})

	for _, name := range Schemes() {
		stack, err := newScheme(name, cfg, nil, "prec-"+name)
		if err != nil {
			return nil, err
		}
		for _, obj := range set.Objects {
			if err := stack.add(obj); err != nil {
				return nil, err
			}
		}
		if err := stack.train(); err != nil {
			return nil, err
		}
		ranks := make([][]string, len(set.Queries))
		for i, q := range set.Queries {
			if ranks[i], err = stack.search(q.Query, k); err != nil {
				return nil, err
			}
		}
		if m, err = eval.MeanAveragePrecision(ranks, truths); err != nil {
			return nil, err
		}
		rows = append(rows, PrecisionRow{System: name, MAP: m})
	}
	return rows, nil
}

// plaintextRankings implements the unencrypted reference system: Euclidean
// vocabulary tree over raw descriptors, TF-IDF inverted index.
func plaintextRankings(cfg Config, set *dataset.HolidaysSet, k int) ([][]string, error) {
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
	ix, err := index.New(index.Options{})
	if err != nil {
		return nil, err
	}
	for id, d := range descs {
		hist := tree.QuantizeAll(d)
		terms := make(map[index.Term]uint64, len(hist))
		for w, f := range hist {
			terms[index.Term("vw:"+strconv.Itoa(w))] = f
		}
		if err := ix.Add(index.DocID(id), terms); err != nil {
			return nil, err
		}
	}
	ranks := make([][]string, len(set.Queries))
	for i, q := range set.Queries {
		hist := tree.QuantizeAll(imaging.Extract(q.Query.Image, pyr))
		terms := make(map[index.Term]uint64, len(hist))
		for w, f := range hist {
			terms[index.Term("vw:"+strconv.Itoa(w))] = f
		}
		res := ix.Search(terms, k)
		ids := make([]string, len(res))
		for j, r := range res {
			ids[j] = string(r.Doc)
		}
		ranks[i] = ids
	}
	return ranks, nil
}
