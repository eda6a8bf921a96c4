package cluster

import (
	"errors"
	"math/rand"
	"testing"

	"mie/internal/vec"
)

func TestRefineHammingKMeansErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prev := []vec.BitVec{randomBits(rng, 64)}
	if _, err := RefineHammingKMeans(nil, prev, RefineOptions{}); !errors.Is(err, ErrBadK) {
		t.Errorf("err = %v, want ErrBadK", err)
	}
	if _, err := RefineHammingKMeans(prev, nil, RefineOptions{}); !errors.Is(err, ErrNoPoints) {
		t.Errorf("err = %v, want ErrNoPoints", err)
	}
	if _, err := RefineHammingKMeans(prev, []vec.BitVec{randomBits(rng, 32)}, RefineOptions{}); err == nil {
		t.Error("expected error for mismatched encoding sizes")
	}
	if _, err := RefineHammingKMeans([]vec.BitVec{randomBits(rng, 64), randomBits(rng, 32)}, prev, RefineOptions{}); err == nil {
		t.Error("expected error for mismatched centroid sizes")
	}
}

// Delta drawn from the same distribution as the previous epoch should barely
// move the codebook: drift stays near zero and unchanged clusters stay put.
func TestRefineStableUnderSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const bits = 256
	bases := []vec.BitVec{randomBits(rng, bits), randomBits(rng, bits), randomBits(rng, bits)}
	var train []vec.BitVec
	for _, base := range bases {
		for i := 0; i < 50; i++ {
			train = append(train, flipBits(rng, base, 10))
		}
	}
	full, err := HammingKMeans(train, 3, Options{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	var delta []vec.BitVec
	for _, base := range bases {
		for i := 0; i < 10; i++ {
			delta = append(delta, flipBits(rng, base, 10))
		}
	}
	res, err := RefineHammingKMeans(full.Centroids, delta, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drift.MeanShift > 0.08 {
		t.Errorf("MeanShift = %v, want near zero for in-distribution delta", res.Drift.MeanShift)
	}
	if res.Drift.ReassignedFraction > 0.1 {
		t.Errorf("ReassignedFraction = %v, want near zero", res.Drift.ReassignedFraction)
	}
	if res.Drift.Exceeds(0.15, 0.5) {
		t.Error("in-distribution drift should not exceed default thresholds")
	}
}

// Refinement must actually track a moved cluster: feed delta samples around a
// shifted base and verify the attracted centroid moves toward it while the
// untouched centroids are byte-identical to the previous epoch.
func TestRefineTracksShiftedCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const bits = 256
	baseA, baseB := randomBits(rng, bits), randomBits(rng, bits)
	var train []vec.BitVec
	for i := 0; i < 60; i++ {
		train = append(train, flipBits(rng, baseA, 8))
		train = append(train, flipBits(rng, baseB, 8))
	}
	full, err := HammingKMeans(train, 2, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Shift cluster A by 30 bits and emit delta only from the shifted base.
	shifted := flipBits(rng, baseA, 30)
	var delta []vec.BitVec
	for i := 0; i < 40; i++ {
		delta = append(delta, flipBits(rng, shifted, 6))
	}
	res, err := RefineHammingKMeans(full.Centroids, delta, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Identify which previous centroid was closest to baseA.
	aIdx, _ := nearestHamming(full.Centroids, baseA)
	bIdx := 1 - aIdx
	if vec.Hamming(res.Centroids[aIdx], shifted) >= vec.Hamming(full.Centroids[aIdx], shifted) {
		t.Errorf("refined centroid did not move toward the shifted base: %d -> %d",
			vec.Hamming(full.Centroids[aIdx], shifted), vec.Hamming(res.Centroids[aIdx], shifted))
	}
	if !sameBits(res.Centroids[bIdx], full.Centroids[bIdx]) {
		t.Error("centroid with no delta samples must stay unchanged")
	}
	if res.Drift.MeanShift <= 0 {
		t.Error("drift should be positive when a cluster moved")
	}
	if res.Drift.MaxShift < res.Drift.MeanShift {
		t.Error("MaxShift must be >= MeanShift")
	}
}

// A delta from a completely different distribution should register high
// drift, signalling that a full re-cluster is warranted.
func TestRefineDriftSignalsDistributionShift(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const bits = 128
	var train []vec.BitVec
	bases := []vec.BitVec{randomBits(rng, bits), randomBits(rng, bits), randomBits(rng, bits), randomBits(rng, bits)}
	for _, base := range bases {
		for i := 0; i < 30; i++ {
			train = append(train, flipBits(rng, base, 5))
		}
	}
	full, err := HammingKMeans(train, 4, Options{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	inDelta := make([]vec.BitVec, 0, 40)
	for _, base := range bases {
		for i := 0; i < 10; i++ {
			inDelta = append(inDelta, flipBits(rng, base, 5))
		}
	}
	outDelta := make([]vec.BitVec, 40)
	for i := range outDelta {
		outDelta[i] = randomBits(rng, bits) // uniform noise, nothing like training
	}
	inRes, err := RefineHammingKMeans(full.Centroids, inDelta, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	outRes, err := RefineHammingKMeans(full.Centroids, outDelta, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outRes.Drift.MeanShift <= inRes.Drift.MeanShift {
		t.Errorf("out-of-distribution MeanShift %v should exceed in-distribution %v",
			outRes.Drift.MeanShift, inRes.Drift.MeanShift)
	}
}

func TestRefineDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	prev := make([]vec.BitVec, 5)
	for i := range prev {
		prev[i] = randomBits(rng, 128)
	}
	delta := make([]vec.BitVec, 30)
	for i := range delta {
		delta[i] = randomBits(rng, 128)
	}
	a, err := RefineHammingKMeans(prev, delta, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RefineHammingKMeans(prev, delta, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Centroids {
		if !sameBits(a.Centroids[c], b.Centroids[c]) {
			t.Fatal("refinement is not deterministic")
		}
	}
	if a.Drift != b.Drift {
		t.Fatalf("drift differs: %+v vs %+v", a.Drift, b.Drift)
	}
}

// Refinement must not mutate its inputs: the previous epoch's centroids are
// shared with the still-serving engine.
func TestRefineDoesNotMutatePrev(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	prev := make([]vec.BitVec, 3)
	orig := make([]vec.BitVec, 3)
	for i := range prev {
		prev[i] = randomBits(rng, 64)
		orig[i] = prev[i].Clone()
	}
	delta := make([]vec.BitVec, 50)
	for i := range delta {
		delta[i] = randomBits(rng, 64)
	}
	if _, err := RefineHammingKMeans(prev, delta, RefineOptions{MaxIter: 8}); err != nil {
		t.Fatal(err)
	}
	for i := range prev {
		if !sameBits(prev[i], orig[i]) {
			t.Fatal("RefineHammingKMeans mutated the previous centroids")
		}
	}
}

func TestDriftExceeds(t *testing.T) {
	d := DriftReport{MeanShift: 0.2, ReassignedFraction: 0.3}
	if !d.Exceeds(0.1, 0.5) {
		t.Error("mean shift over limit must trip")
	}
	if !d.Exceeds(0.5, 0.2) {
		t.Error("reassignment over limit must trip")
	}
	if d.Exceeds(0.5, 0.5) {
		t.Error("under both limits must not trip")
	}
	if d.Exceeds(0, 0) {
		t.Error("non-positive limits disable the check")
	}
}
