package cluster

import (
	"fmt"
)

// VocabTree is a hierarchical-k-means vocabulary tree (Nistér–Stewénius):
// descriptors are clustered into Branch groups, each group recursively into
// Branch sub-groups, Height levels deep. The leaves are the visual words;
// quantizing a descriptor is a greedy root-to-leaf descent costing
// Branch*Height distance computations instead of a linear scan over all
// words. The paper's prototype uses height 3, width 10 (≈1000 words).
//
// The tree is generic over the point type so the same structure serves both
// MIE (Hamming space over DPE encodings, trained in the cloud) and the MSSE
// baselines (Euclidean space over plaintext descriptors, trained on the
// client).
type VocabTree[P any] struct {
	branch  int
	height  int
	dist    func(P, P) float64
	root    *vnode[P]
	numLeaf int
}

type vnode[P any] struct {
	centroid P
	children []*vnode[P]
	leafID   int // valid when children is empty
}

// Clusterer groups points into at most k clusters and returns the centroids
// and the per-point assignment (an index into centroids). Implementations
// wrap KMeans or HammingKMeans.
type Clusterer[P any] func(points []P, k int, seed int64) (centroids []P, assignments []int, err error)

// TreeParams configures vocabulary-tree construction.
type TreeParams struct {
	// Branch is the fan-out at each level (paper: 10).
	Branch int
	// Height is the number of clustering levels (paper: 3).
	Height int
	// Seed drives deterministic clustering.
	Seed int64
}

// BuildVocabTree trains a tree over the given points. The distance function
// must match the clusterer's space.
func BuildVocabTree[P any](points []P, params TreeParams, clusterFn Clusterer[P], dist func(P, P) float64) (*VocabTree[P], error) {
	if params.Branch < 2 {
		return nil, fmt.Errorf("cluster: tree branch must be >= 2, got %d", params.Branch)
	}
	if params.Height < 1 {
		return nil, fmt.Errorf("cluster: tree height must be >= 1, got %d", params.Height)
	}
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	t := &VocabTree[P]{branch: params.Branch, height: params.Height, dist: dist}
	root, err := t.build(points, params.Height, params.Seed, clusterFn)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.assignLeafIDs(t.root)
	return t, nil
}

func (t *VocabTree[P]) build(points []P, levels int, seed int64, clusterFn Clusterer[P]) (*vnode[P], error) {
	centroids, assignments, err := clusterFn(points, t.branch, seed)
	if err != nil {
		return nil, fmt.Errorf("cluster: vocab tree level %d: %w", levels, err)
	}
	node := &vnode[P]{}
	if levels == 1 || len(centroids) == 1 {
		// Leaf level: each centroid is a visual word.
		node.children = make([]*vnode[P], len(centroids))
		for i, c := range centroids {
			node.children[i] = &vnode[P]{centroid: c}
		}
		return node, nil
	}
	groups := make([][]P, len(centroids))
	for i, a := range assignments {
		groups[a] = append(groups[a], points[i])
	}
	node.children = make([]*vnode[P], 0, len(centroids))
	for i, c := range centroids {
		if len(groups[i]) == 0 {
			// Degenerate cluster: keep the centroid as a leaf word.
			node.children = append(node.children, &vnode[P]{centroid: c})
			continue
		}
		child, err := t.build(groups[i], levels-1, seed+int64(i)+1, clusterFn)
		if err != nil {
			return nil, err
		}
		child.centroid = c
		node.children = append(node.children, child)
	}
	return node, nil
}

func (t *VocabTree[P]) assignLeafIDs(n *vnode[P]) {
	if len(n.children) == 0 {
		n.leafID = t.numLeaf
		t.numLeaf++
		return
	}
	for _, c := range n.children {
		t.assignLeafIDs(c)
	}
}

// NumWords returns the vocabulary size (number of leaves).
func (t *VocabTree[P]) NumWords() int { return t.numLeaf }

// Quantize maps a descriptor to its visual-word id by greedy descent.
func (t *VocabTree[P]) Quantize(p P) int {
	n := t.root
	for len(n.children) > 0 {
		best, bestD := 0, t.dist(p, n.children[0].centroid)
		for i := 1; i < len(n.children); i++ {
			if d := t.dist(p, n.children[i].centroid); d < bestD {
				best, bestD = i, d
			}
		}
		n = n.children[best]
	}
	return n.leafID
}
