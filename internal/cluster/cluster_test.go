package cluster

import (
	"errors"
	"math/rand"
	"testing"

	"mie/internal/vec"
)

// gaussianBlobs generates n points around k well-separated centers.
func gaussianBlobs(n, k, dim int, seed int64) (points [][]float64, labels []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = float64(c*10) + rng.NormFloat64()
		}
	}
	points = make([][]float64, n)
	labels = make([]int, n)
	for i := range points {
		c := rng.Intn(k)
		labels[i] = c
		points[i] = make([]float64, dim)
		for d := range points[i] {
			points[i][d] = centers[c][d] + rng.NormFloat64()*0.3
		}
	}
	return points, labels
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 3, Options{}); !errors.Is(err, ErrNoPoints) {
		t.Errorf("err = %v, want ErrNoPoints", err)
	}
	if _, err := KMeans([][]float64{{1}}, 0, Options{}); !errors.Is(err, ErrBadK) {
		t.Errorf("err = %v, want ErrBadK", err)
	}
	if _, err := KMeans([][]float64{{1, 2}, {1}}, 1, Options{}); err == nil {
		t.Error("expected error for ragged points")
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	points, labels := gaussianBlobs(300, 3, 4, 1)
	res, err := KMeans(points, 3, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
	// Points with the same true label must share a cluster (purity 100% for
	// blobs this separated).
	for c := 0; c < 3; c++ {
		seen := -1
		for i, l := range labels {
			if l != c {
				continue
			}
			if seen == -1 {
				seen = res.Assignments[i]
			} else if res.Assignments[i] != seen {
				t.Fatalf("blob %d split across clusters", c)
			}
		}
	}
}

func TestKMeansAssignmentOptimality(t *testing.T) {
	points, _ := gaussianBlobs(200, 4, 8, 3)
	res, err := KMeans(points, 4, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		got := res.Assignments[i]
		for c := range res.Centroids {
			if vec.SquaredEuclidean(p, res.Centroids[c]) < vec.SquaredEuclidean(p, res.Centroids[got])-1e-9 {
				t.Fatalf("point %d assigned to %d but %d is closer", i, got, c)
			}
		}
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	points := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	res, err := KMeans(points, 10, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Errorf("k capped to n: got %d centroids, want 3", len(res.Centroids))
	}
	if res.Inertia > 1e-9 {
		t.Errorf("inertia = %v, want ~0 when every point is a centroid", res.Inertia)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	points, _ := gaussianBlobs(100, 3, 4, 5)
	a, err := KMeans(points, 3, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(points, 3, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	points := make([][]float64, 10)
	for i := range points {
		points[i] = []float64{1, 2, 3}
	}
	res, err := KMeans(points, 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Errorf("identical points inertia = %v", res.Inertia)
	}
}

func randomBits(rng *rand.Rand, n int) vec.BitVec {
	b := vec.NewBitVec(n)
	for i := 0; i < n; i++ {
		b.Set(i, rng.Intn(2) == 1)
	}
	return b
}

// flipBits returns a copy of b with m random bits flipped.
func flipBits(rng *rand.Rand, b vec.BitVec, m int) vec.BitVec {
	c := b.Clone()
	for j := 0; j < m; j++ {
		i := rng.Intn(b.Len())
		c.Set(i, !unpackBits(c)[i])
	}
	return c
}

func TestHammingKMeansErrors(t *testing.T) {
	if _, err := HammingKMeans(nil, 2, Options{}); !errors.Is(err, ErrNoPoints) {
		t.Errorf("err = %v, want ErrNoPoints", err)
	}
	if _, err := HammingKMeans([]vec.BitVec{vec.NewBitVec(8)}, -1, Options{}); !errors.Is(err, ErrBadK) {
		t.Errorf("err = %v, want ErrBadK", err)
	}
	if _, err := HammingKMeans([]vec.BitVec{vec.NewBitVec(8), vec.NewBitVec(16)}, 1, Options{}); err == nil {
		t.Error("expected error for mixed encoding sizes")
	}
}

func TestHammingKMeansRecoversClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const bits = 256
	bases := []vec.BitVec{randomBits(rng, bits), randomBits(rng, bits), randomBits(rng, bits)}
	var points []vec.BitVec
	var labels []int
	for c, base := range bases {
		for i := 0; i < 60; i++ {
			points = append(points, flipBits(rng, base, 12))
			labels = append(labels, c)
		}
	}
	res, err := HammingKMeans(points, 3, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		votes := make(map[int]int)
		total := 0
		for i, l := range labels {
			if l == c {
				votes[res.Assignments[i]]++
				total++
			}
		}
		best := 0
		for _, v := range votes {
			if v > best {
				best = v
			}
		}
		if float64(best)/float64(total) < 0.95 {
			t.Errorf("cluster %d purity %v < 0.95", c, float64(best)/float64(total))
		}
	}
}

func TestHammingKMeansAssignmentOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	points := make([]vec.BitVec, 80)
	for i := range points {
		points[i] = randomBits(rng, 128)
	}
	res, err := HammingKMeans(points, 5, Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		got := res.Assignments[i]
		for c := range res.Centroids {
			if vec.Hamming(p, res.Centroids[c]) < vec.Hamming(p, res.Centroids[got]) {
				t.Fatalf("point %d assigned to %d but %d is closer", i, got, c)
			}
		}
	}
}

func euclideanClusterer(points [][]float64, k int, seed int64) ([][]float64, []int, error) {
	res, err := KMeans(points, k, Options{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return res.Centroids, res.Assignments, nil
}

func TestVocabTreeBuildValidation(t *testing.T) {
	points, _ := gaussianBlobs(50, 3, 4, 20)
	if _, err := BuildVocabTree(points, TreeParams{Branch: 1, Height: 2}, euclideanClusterer, vec.Euclidean); err == nil {
		t.Error("expected error for branch < 2")
	}
	if _, err := BuildVocabTree(points, TreeParams{Branch: 4, Height: 0}, euclideanClusterer, vec.Euclidean); err == nil {
		t.Error("expected error for height < 1")
	}
	if _, err := BuildVocabTree(nil, TreeParams{Branch: 4, Height: 2}, euclideanClusterer, vec.Euclidean); !errors.Is(err, ErrNoPoints) {
		t.Errorf("err = %v, want ErrNoPoints", err)
	}
}

func TestVocabTreeQuantization(t *testing.T) {
	points, labels := gaussianBlobs(400, 4, 8, 21)
	tree, err := BuildVocabTree(points, TreeParams{Branch: 4, Height: 2, Seed: 22}, euclideanClusterer, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumWords() < 4 || tree.NumWords() > 16 {
		t.Errorf("NumWords = %d, want within [4,16] for branch 4 height 2", tree.NumWords())
	}
	// All ids in range.
	for _, p := range points {
		id := tree.Quantize(p)
		if id < 0 || id >= tree.NumWords() {
			t.Fatalf("word id %d out of range [0,%d)", id, tree.NumWords())
		}
	}
	// Leaves are finer-grained than blobs, so a blob's points may span
	// several words — but each *word* should contain points from a single
	// blob (leaf purity), since blobs are far apart relative to leaf size.
	leafBlobs := make(map[int]map[int]int)
	for i, p := range points {
		id := tree.Quantize(p)
		if leafBlobs[id] == nil {
			leafBlobs[id] = make(map[int]int)
		}
		leafBlobs[id][labels[i]]++
	}
	pure, total := 0, 0
	for _, blobs := range leafBlobs {
		best, n := 0, 0
		for _, v := range blobs {
			n += v
			if v > best {
				best = v
			}
		}
		pure += best
		total += n
	}
	if float64(pure)/float64(total) < 0.95 {
		t.Errorf("leaf purity %v < 0.95", float64(pure)/float64(total))
	}
}

func TestVocabTreeQuantizeAll(t *testing.T) {
	points, _ := gaussianBlobs(100, 3, 4, 23)
	tree, err := BuildVocabTree(points, TreeParams{Branch: 3, Height: 2, Seed: 24}, euclideanClusterer, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	h := make(map[int]uint64)
	for _, p := range points {
		h[tree.Quantize(p)]++
	}
	var total uint64
	for id, c := range h {
		if id < 0 || id >= tree.NumWords() {
			t.Errorf("word id %d out of range", id)
		}
		total += c
	}
	if total != uint64(len(points)) {
		t.Errorf("histogram total %d, want %d", total, len(points))
	}
}

func TestVocabTreeWalkCoversAllWords(t *testing.T) {
	points, _ := gaussianBlobs(100, 3, 4, 25)
	tree, err := BuildVocabTree(points, TreeParams{Branch: 3, Height: 2, Seed: 26}, euclideanClusterer, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	var walk func(n *vnode[[]float64])
	walk = func(n *vnode[[]float64]) {
		if len(n.children) == 0 {
			seen[n.leafID] = true
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tree.root)
	if len(seen) != tree.NumWords() {
		t.Errorf("the tree has %d leaves, want %d", len(seen), tree.NumWords())
	}
	for i := 0; i < tree.NumWords(); i++ {
		if !seen[i] {
			t.Errorf("word %d never visited: ids must be dense", i)
		}
	}
}

func TestVocabTreeHammingSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const bits = 128
	var points []vec.BitVec
	for c := 0; c < 4; c++ {
		base := randomBits(rng, bits)
		for i := 0; i < 40; i++ {
			points = append(points, flipBits(rng, base, 6))
		}
	}
	hamCluster := func(ps []vec.BitVec, k int, seed int64) ([]vec.BitVec, []int, error) {
		res, err := HammingKMeans(ps, k, Options{Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return res.Centroids, res.Assignments, nil
	}
	dist := func(a, b vec.BitVec) float64 { return float64(vec.Hamming(a, b)) }
	tree, err := BuildVocabTree(points, TreeParams{Branch: 2, Height: 2, Seed: 28}, hamCluster, dist)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumWords() < 2 {
		t.Errorf("NumWords = %d", tree.NumWords())
	}
	for _, p := range points {
		if id := tree.Quantize(p); id < 0 || id >= tree.NumWords() {
			t.Fatalf("word id %d out of range", id)
		}
	}
}
