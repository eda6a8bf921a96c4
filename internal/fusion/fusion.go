// Package fusion merges per-modality ranked result lists into one multimodal
// ranking. The paper uses the unsupervised logarithmic inverse square rank
// (ISR) family of Mourão et al.: each hit contributes 1/rank², and documents
// found by several modalities get a logarithmic frequency boost. Rank-based
// fusion needs no score normalization across modalities, which is why it
// works unchanged over encrypted indexes.
package fusion

import (
	"hash/maphash"
	"math"
	"slices"

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
// own score) and returns the top k documents under the fused score. Ranks are
// 1-based. Empty lists contribute nothing.
//
// When only one list is non-empty and it names each document once, it goes
// through Rank and no tally is built. Callers may pass lists that repeat a
// document (the msse baselines do), so that is checked first.
func Fuse(method Method, lists [][]index.Result, k int) []index.Result {
	if k <= 0 {
		return nil
	}
	n, nonEmpty := 0, 0
	var only []index.Result
	for _, list := range lists {
		if len(list) > 0 {
			nonEmpty++
			only = list
		}
		n += len(list)
	}
	if nonEmpty == 1 && distinct(only) {
		return Rank(method, only, k)
	}
	type tally struct {
		doc  index.DocID
		sum  float64
		hits int
	}
	// Tallies sit in a slice in order of first sight, so only finding a
	// document's slot hashes its id.
	slot := make(map[index.DocID]int, n)
	tallies := make([]tally, 0, n)
	for _, list := range lists {
		for i, r := range list {
			j, ok := slot[r.Doc]
			if !ok {
				j = len(tallies)
				slot[r.Doc] = j
				tallies = append(tallies, tally{doc: r.Doc})
			}
			t := &tallies[j]
			t.sum = kernel(method, t.sum, i)
			t.hits++
		}
	}
	top := index.NewTop(k, len(tallies))
	for _, t := range tallies {
		top.Offer(t.doc, fused(method, t.sum, t.hits))
	}
	return top.Results()
}

// Rank is the fusion of one ranked list that names each document once: its
// first k hits, in its order, each with the fused score of its rank. The
// order is already the fused order, since every method's score falls
// strictly with rank. A query that carries a single modality is ranked here
// directly: an index lookup names each document once by construction.
func Rank(method Method, list []index.Result, k int) []index.Result {
	if k <= 0 {
		return nil
	}
	out := make([]index.Result, min(k, len(list)))
	for i := range out {
		out[i] = index.Result{Doc: list[i].Doc, Score: fused(method, kernel(method, 0, i), 1)}
	}
	return out
}

// hashSeed keys distinct's hashes.
var hashSeed = maphash.MakeSeed()

// distinct reports whether no document appears twice in list. Two ids with
// equal hashes only send the list down the tallying path, which is right for
// every input.
func distinct(list []index.Result) bool {
	hs := make([]uint64, 0, 128) // on the stack for a list of up to 128
	for _, r := range list {
		hs = append(hs, maphash.String(hashSeed, string(r.Doc)))
	}
	slices.Sort(hs)
	for i := 1; i < len(hs); i++ {
		if hs[i] == hs[i-1] {
			return false
		}
	}
	return true
}

// kernel adds the contribution of the hit at 0-based position i of a list to
// sum.
func kernel(method Method, sum float64, i int) float64 {
	rank := float64(i + 1)
	if method == RRF {
		return sum + 1/(60+rank)
	}
	return sum + 1/(rank*rank) // ISR and LogISR share the inverse-square kernel
}

// fused is a document's score from its kernel sum and its number of hits.
func fused(method Method, sum float64, hits int) float64 {
	if method == LogISR {
		sum *= math.Log(1 + float64(hits))
	}
	return sum
}
