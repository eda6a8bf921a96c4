// Package cluster implements the training substrate of MIE: k-means
// clustering (Lloyd's algorithm with k-means++ seeding) in both Euclidean
// space — used client-side by the MSSE baselines over plaintext features —
// and Hamming space — used server-side by MIE over Dense-DPE encodings
// ("applying k-means over normalized Hamming distances", paper §VI) — plus
// the hierarchical-k-means vocabulary tree (Nistér–Stewénius) that turns
// descriptors into Bag-Of-Visual-Words terms.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"

	"mie/internal/vec"
)

// Common errors.
var (
	// ErrNoPoints is returned when clustering is asked for an empty dataset.
	ErrNoPoints = errors.New("cluster: no points")
	// ErrBadK is returned for non-positive k.
	ErrBadK = errors.New("cluster: k must be positive")
)

// Options tunes the k-means loop.
type Options struct {
	// MaxIter bounds Lloyd iterations; defaults to 50.
	MaxIter int
	// Seed drives the deterministic PRNG used for k-means++ seeding.
	Seed int64
}

// tolerance stops iterating when total centroid movement (in the space's own
// metric) falls below it.
const tolerance = 1e-6

func (o *Options) setDefaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
}

// Result carries the outcome of Euclidean k-means.
type Result struct {
	Centroids   [][]float64
	Assignments []int
	Inertia     float64 // sum of squared distances to assigned centroids
	Iterations  int
}

// KMeans clusters points into k groups with Lloyd's algorithm and k-means++
// seeding. If k >= len(points) every point becomes its own centroid.
func KMeans(points [][]float64, k int, opts Options) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if k <= 0 {
		return nil, ErrBadK
	}
	opts.setDefaults()
	if k > len(points) {
		k = len(points)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	res := &Result{}
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		// Assignment step.
		var inertia float64
		for i, p := range points {
			best, bestD := 0, vec.SquaredEuclidean(p, centroids[0])
			for c := 1; c < k; c++ {
				if d := vec.SquaredEuclidean(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			inertia += bestD
		}
		res.Inertia = inertia
		// Update step.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			vec.Add(sums[assign[i]], p)
			counts[assign[i]]++
		}
		var moved float64
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Empty cluster: re-seed on the point farthest from its
				// centroid, a standard repair that keeps k clusters alive.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := vec.SquaredEuclidean(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				moved += vec.Euclidean(centroids[c], points[far])
				centroids[c] = vec.Clone(points[far])
				continue
			}
			vec.Scale(sums[c], 1/float64(counts[c]))
			moved += vec.Euclidean(centroids[c], sums[c])
			centroids[c] = sums[c]
		}
		if moved < tolerance {
			break
		}
	}
	// Final assignment against the last centroid update.
	var inertia float64
	for i, p := range points {
		best, bestD := 0, vec.SquaredEuclidean(p, centroids[0])
		for c := 1; c < k; c++ {
			if d := vec.SquaredEuclidean(p, centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		inertia += bestD
	}
	res.Centroids = centroids
	res.Assignments = assign
	res.Inertia = inertia
	return res, nil
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, vec.Clone(points[rng.Intn(len(points))]))
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := vec.SquaredEuclidean(p, last)
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			centroids = append(centroids, vec.Clone(points[rng.Intn(len(points))]))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, w := range d2 {
			r -= w
			if r <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, vec.Clone(points[idx]))
	}
	return centroids
}
