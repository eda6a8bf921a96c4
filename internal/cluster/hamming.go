package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mie/internal/vec"
)

// HammingResult carries the outcome of k-means over bit vectors.
type HammingResult struct {
	Centroids   []vec.BitVec
	Assignments []int
	Inertia     float64 // sum of Hamming distances to assigned centroids
	Iterations  int
}

// HammingKMeans clusters Dense-DPE encodings in Hamming space: assignment
// uses Hamming distance and the update step takes the per-bit majority vote
// of each cluster (the 1-median in Hamming space). This is the "small
// modification" the paper notes is needed for the cloud to train on
// encodings instead of plaintext features.
func HammingKMeans(points []vec.BitVec, k int, opts Options) (*HammingResult, error) {
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
	n := points[0].Len()
	for i, p := range points {
		if p.Len() != n {
			return nil, fmt.Errorf("cluster: encoding %d has %d bits, want %d", i, p.Len(), n)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	centroids := seedHammingPlusPlus(points, k, rng)
	// near.of holds the points' assignment to the current centroids.
	near := newNearest(points, k)
	inertia := near.assign(centroids)
	votes := vec.NewBitVotes(k, n, len(points))
	res := &HammingResult{}
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		// Majority-vote update. An empty cluster is re-seeded on the point
		// farthest from its own centroid, measured against the centroids as
		// this pass has left them so far.
		votes.Reset()
		for i, p := range points {
			votes.Add(near.of[i], p)
		}
		moved := 0
		for c := 0; c < k; c++ {
			if votes.Count(c) == 0 {
				far, farD := 0, -1
				for i, p := range points {
					if d := vec.Hamming(p, centroids[near.of[i]]); d > farD {
						far, farD = i, d
					}
				}
				near.shift[c] = vec.Hamming(centroids[c], points[far])
				centroids[c] = points[far].Clone()
				moved++ // even onto the bits it had
				continue
			}
			// Ties keep the previous bit so the loop can converge.
			near.shift[c] = votes.Majority(c, centroids[c])
			if near.shift[c] != 0 {
				moved++
			}
		}
		if moved == 0 {
			break
		}
		inertia = near.assign(centroids)
	}
	res.Centroids, res.Assignments, res.Inertia = centroids, near.of, float64(inertia)
	return res, nil
}

// nearest keeps every point's nearest centroid across the passes of a
// Hamming k-means and skips the centroid scan for a point whose assignment
// it can prove unchanged (Hamerly's bounds). Per point it holds the exact
// distance to the assigned centroid and a lower bound on the distance to
// every other one. When centroids move, by shift[c] bits each, the triangle
// inequality lowers every lower bound by the largest shift, and the one
// distance whose centroid moved is recomputed. A point strictly nearer its
// centroid than the lower bound is strictly nearer it than any other, so
// the full scan, which takes the lowest index on ties, would pick it too.
// Anything short of strict goes to the full scan, as does every point on
// the first pass, where dist and lower are both still zero.
type nearest struct {
	points      []vec.BitVec
	of          []int // assigned centroid per point
	dist, lower []int
	shift       []int // bits each centroid moved since the last pass
}

func newNearest(points []vec.BitVec, k int) *nearest {
	return &nearest{
		points: points,
		of:     make([]int, len(points)),
		dist:   make([]int, len(points)),
		lower:  make([]int, len(points)),
		shift:  make([]int, k),
	}
}

// assign points every point at its nearest centroid, exactly as a linear
// scan would (the lowest index wins a tie), and returns the sum of the
// points' distances to it.
func (nn *nearest) assign(centroids []vec.BitVec) int {
	maxShift := slices.Max(nn.shift)
	sum := 0
	for i, p := range nn.points {
		if c := nn.of[i]; nn.shift[c] != 0 {
			nn.dist[i] = vec.Hamming(p, centroids[c])
		}
		nn.lower[i] -= maxShift
		if nn.dist[i] >= nn.lower[i] {
			nn.of[i], nn.dist[i], nn.lower[i] = nearestTwo(centroids, p)
		}
		sum += nn.dist[i]
	}
	clear(nn.shift)
	return sum
}

// nearestTwo is a linear scan for p's nearest centroid (the lowest index
// wins a tie) that also returns the distance to the nearest other centroid
// (math.MaxInt when there is none).
func nearestTwo(centroids []vec.BitVec, p vec.BitVec) (best, bestD, second int) {
	best, bestD, second = 0, vec.Hamming(p, centroids[0]), math.MaxInt
	for c := 1; c < len(centroids); c++ {
		if d := vec.Hamming(p, centroids[c]); d < bestD {
			best, bestD, second = c, d, bestD
		} else if d < second {
			second = d
		}
	}
	return best, bestD, second
}

// seedHammingPlusPlus mirrors k-means++ with Hamming distances.
func seedHammingPlusPlus(points []vec.BitVec, k int, rng *rand.Rand) []vec.BitVec {
	centroids := make([]vec.BitVec, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := float64(vec.Hamming(p, last))
			d = d * d
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			centroids = append(centroids, points[rng.Intn(len(points))].Clone())
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
		centroids = append(centroids, points[idx].Clone())
	}
	return centroids
}
