// Package fusion merges per-modality ranked result lists into one multimodal
// ranking. The paper uses the unsupervised logarithmic inverse square rank
// (ISR) family of Mourão et al.: each hit contributes 1/rank², and documents
// found by several modalities get a logarithmic frequency boost. Rank-based
// fusion needs no score normalization across modalities, which is why it
// works unchanged over encrypted indexes.
package fusion

import (
	"math"

	"mie/internal/index"
)

// Method selects the fusion formula.
type Method int

const (
	// LogISR is logarithmic inverse square rank fusion (the paper's choice):
	// score(d) = log(1 + hits(d)) * Σ_modality 1/rank(d)².
	LogISR Method = iota + 1
	// ISR is plain inverse square rank: score(d) = Σ 1/rank(d)².
	ISR
	// RRF is reciprocal rank fusion with the customary k=60 damping,
	// provided as an ablation alternative.
	RRF
)

// Fuse merges the per-modality ranked lists (each sorted descending by its
// own score) and returns the top k documents under the fused score. Ranks
// are 1-based. Empty lists contribute nothing.
func Fuse(method Method, lists [][]index.Result, k int) []index.Result {
	if k <= 0 {
		return nil
	}
	n := 0
	for _, list := range lists {
		n += len(list)
	}
	type tally struct {
		sum  float64
		hits int
	}
	tallies := make(map[index.DocID]tally, n)
	for _, list := range lists {
		for i, r := range list {
			rank := float64(i + 1)
			t := tallies[r.Doc]
			switch method {
			case RRF:
				t.sum += 1 / (60 + rank)
			default: // ISR and LogISR share the inverse-square kernel
				t.sum += 1 / (rank * rank)
			}
			t.hits++
			tallies[r.Doc] = t
		}
	}
	top := index.NewTopKHeap(k)
	for doc, t := range tallies {
		if method == LogISR {
			t.sum *= math.Log(1 + float64(t.hits))
		}
		top.Offer(index.Result{Doc: doc, Score: t.sum})
	}
	return top.Results()
}
