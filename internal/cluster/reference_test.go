package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"mie/internal/vec"
)

// refHammingKMeans is HammingKMeans as it was written before the word-level
// kernels: a full centroid scan per point and pass, and a per-bit majority
// vote over a k×n table of counts. It is the model the kernels must match
// field for field.
func refHammingKMeans(points []vec.BitVec, k int, opts Options) (*HammingResult, error) {
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
	assign := make([]int, len(points))
	res := &HammingResult{}
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		var inertia float64
		for i, p := range points {
			best, bestD := nearestHamming(centroids, p)
			assign[i] = best
			inertia += float64(bestD)
		}
		res.Inertia = inertia
		// Majority-vote update.
		ones := make([][]int, k)
		counts := make([]int, k)
		for c := range ones {
			ones[c] = make([]int, n)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			pb := unpackBits(p)
			for b := 0; b < n; b++ {
				if pb[b] {
					ones[c][b]++
				}
			}
		}
		moved := 0
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				far, farD := 0, -1
				for i, p := range points {
					if d := vec.Hamming(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = points[far].Clone()
				moved++
				continue
			}
			next, cur := vec.NewBitVec(n), unpackBits(centroids[c])
			for b := 0; b < n; b++ {
				switch {
				case 2*ones[c][b] > counts[c]:
					next.Set(b, true)
				case 2*ones[c][b] == counts[c]:
					// Tie: keep the previous bit so the loop can converge.
					next.Set(b, cur[b])
				}
			}
			if !sameBits(next, centroids[c]) {
				moved++
			}
			centroids[c] = next
		}
		if moved == 0 {
			break
		}
	}
	var inertia float64
	for i, p := range points {
		best, bestD := nearestHamming(centroids, p)
		assign[i] = best
		inertia += float64(bestD)
	}
	res.Centroids = centroids
	res.Assignments = assign
	res.Inertia = inertia
	return res, nil
}

// refRefineHammingKMeans is RefineHammingKMeans as it was written before the
// word-level kernels.
func refRefineHammingKMeans(prev []vec.BitVec, delta []vec.BitVec, opts RefineOptions) (*RefineResult, error) {
	if len(prev) == 0 {
		return nil, ErrBadK
	}
	if len(delta) == 0 {
		return nil, ErrNoPoints
	}
	opts.setDefaults()
	n := prev[0].Len()
	for i, c := range prev {
		if c.Len() != n {
			return nil, fmt.Errorf("cluster: centroid %d has %d bits, want %d", i, c.Len(), n)
		}
	}
	for i, p := range delta {
		if p.Len() != n {
			return nil, fmt.Errorf("cluster: encoding %d has %d bits, want %d", i, p.Len(), n)
		}
	}
	k := len(prev)
	centroids := make([]vec.BitVec, k)
	for c := range prev {
		centroids[c] = prev[c].Clone()
	}
	prevAssign := make([]int, len(delta))
	for i, p := range delta {
		prevAssign[i], _ = nearestHamming(prev, p)
	}
	assign := make([]int, len(delta))
	res := &RefineResult{}
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		for i, p := range delta {
			assign[i], _ = nearestHamming(centroids, p)
		}
		ones := make([][]int, k)
		counts := make([]int, k)
		for c := range ones {
			ones[c] = make([]int, n)
		}
		for i, p := range delta {
			c := assign[i]
			counts[c]++
			pb := unpackBits(p)
			for b := 0; b < n; b++ {
				if pb[b] {
					ones[c][b]++
				}
			}
		}
		moved := 0
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue // no delta evidence: keep the previous centroid
			}
			total := counts[c] + opts.PriorWeight
			next, cur, pre := vec.NewBitVec(n), unpackBits(centroids[c]), unpackBits(prev[c])
			for b := 0; b < n; b++ {
				votes := ones[c][b]
				if pre[b] {
					votes += opts.PriorWeight
				}
				switch {
				case 2*votes > total:
					next.Set(b, true)
				case 2*votes == total:
					// Tie: keep the current bit so the loop can converge.
					next.Set(b, cur[b])
				}
			}
			if !sameBits(next, centroids[c]) {
				moved++
			}
			centroids[c] = next
		}
		if moved == 0 {
			break
		}
	}
	var shiftSum float64
	for c := 0; c < k; c++ {
		shift := float64(vec.Hamming(prev[c], centroids[c])) / float64(n)
		shiftSum += shift
		if shift > res.Drift.MaxShift {
			res.Drift.MaxShift = shift
		}
	}
	res.Drift.MeanShift = shiftSum / float64(k)
	reassigned := 0
	for i, p := range delta {
		now, _ := nearestHamming(centroids, p)
		assign[i] = now
		if now != prevAssign[i] {
			reassigned++
		}
	}
	res.Drift.ReassignedFraction = float64(reassigned) / float64(len(delta))
	res.Centroids = centroids
	return res, nil
}

// matchesReference runs HammingKMeans and its reference on one input and
// reports the first result field in which they differ.
func matchesReference(points []vec.BitVec, k int, opts Options) error {
	want, err := refHammingKMeans(points, k, opts)
	if err != nil {
		return err
	}
	got, err := HammingKMeans(points, k, opts)
	if err != nil {
		return err
	}
	if got.Iterations != want.Iterations {
		return fmt.Errorf("Iterations = %d, want %d", got.Iterations, want.Iterations)
	}
	if got.Inertia != want.Inertia {
		return fmt.Errorf("Inertia = %v, want %v", got.Inertia, want.Inertia)
	}
	if err := sameCentroids(got.Centroids, want.Centroids); err != nil {
		return err
	}
	if len(got.Assignments) != len(want.Assignments) {
		return fmt.Errorf("%d assignments, want %d", len(got.Assignments), len(want.Assignments))
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			return fmt.Errorf("point %d assigned to %d, want %d", i, got.Assignments[i], want.Assignments[i])
		}
	}
	return nil
}

// refineMatchesReference does the same for RefineHammingKMeans.
func refineMatchesReference(prev, delta []vec.BitVec, opts RefineOptions) error {
	want, err := refRefineHammingKMeans(prev, delta, opts)
	if err != nil {
		return err
	}
	got, err := RefineHammingKMeans(prev, delta, opts)
	if err != nil {
		return err
	}
	if got.Iterations != want.Iterations {
		return fmt.Errorf("Iterations = %d, want %d", got.Iterations, want.Iterations)
	}
	if got.Drift != want.Drift {
		return fmt.Errorf("Drift = %+v, want %+v", got.Drift, want.Drift)
	}
	return sameCentroids(got.Centroids, want.Centroids)
}

func sameCentroids(got, want []vec.BitVec) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d centroids, want %d", len(got), len(want))
	}
	for c := range want {
		if !sameBits(got[c], want[c]) {
			return fmt.Errorf("centroid %d differs in %d bits", c, vec.Hamming(got[c], want[c]))
		}
	}
	return nil
}

// pointShapes draws the point sets the reference comparison runs over, all
// of one width: uniform bits, noisy copies of a few bases, a handful of
// values repeated many times, and one value only. The last two make Hamming
// ties everywhere and leave clusters empty, several in one pass, so the
// re-seed and the lowest-index rule are exercised, not just the vote.
func pointShapes(rng *rand.Rand, width int) map[string][]vec.BitVec {
	const n = 40
	shapes := map[string][]vec.BitVec{}
	var uniform, blobs, dups, same []vec.BitVec
	bases := []vec.BitVec{randomBits(rng, width), randomBits(rng, width), randomBits(rng, width)}
	few := []vec.BitVec{randomBits(rng, width), randomBits(rng, width), flipBits(rng, bases[0], 1)}
	one := randomBits(rng, width)
	for i := 0; i < n; i++ {
		uniform = append(uniform, randomBits(rng, width))
		blobs = append(blobs, flipBits(rng, bases[i%len(bases)], 1+width/16))
		dups = append(dups, few[rng.Intn(len(few))].Clone())
		same = append(same, one.Clone())
	}
	shapes["uniform"], shapes["blobs"], shapes["dups"], shapes["same"] = uniform, blobs, dups, same
	return shapes
}

var refWidths = []int{1, 63, 64, 65, 70, 512, 2048}

// unevenBlobs draws a few random bases, each with its own noise level, and
// asks for one to three more clusters than there are bases. Blobs that
// settle at different speeds can empty a cluster in a pass where a
// lower-indexed one still moves, and then which point is farthest depends
// on measuring against the centroids as the pass has left them so far.
// Random data rarely reaches that (about 4 instances in 10 000); the seeds
// TestHammingKMeansMatchesReference runs do.
func unevenBlobs(seed int64) (points []vec.BitVec, k int) {
	rng := rand.New(rand.NewSource(seed))
	width, blobs := 16+rng.Intn(100), 1+rng.Intn(3)
	k, count := blobs+1+rng.Intn(3), 10+rng.Intn(60)
	bases, noise := make([]vec.BitVec, blobs), make([]int, blobs)
	for b := range bases {
		bases[b], noise[b] = randomBits(rng, width), rng.Intn(width/2+1)
	}
	for i := 0; i < count; i++ {
		b := rng.Intn(blobs)
		points = append(points, flipBits(rng, bases[b], rng.Intn(noise[b]+1)))
	}
	return points, k
}

// TestHammingKMeansMatchesReference holds HammingKMeans to the per-bit
// reference on every result field.
func TestHammingKMeansMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, width := range refWidths {
		for shape, points := range pointShapes(rng, width) {
			for _, k := range []int{1, 2, 7, len(points), len(points) + 3} {
				for _, maxIter := range []int{1, 2, 15} {
					for seed := int64(1); seed <= 2; seed++ {
						if err := matchesReference(points, k, Options{Seed: seed, MaxIter: maxIter}); err != nil {
							t.Errorf("width %d %s k=%d MaxIter=%d seed %d: %v", width, shape, k, maxIter, seed, err)
						}
					}
				}
			}
		}
	}
	for _, seed := range []int64{4185, 4985, 5093, 8046} {
		points, k := unevenBlobs(seed)
		if err := matchesReference(points, k, Options{Seed: seed, MaxIter: 15}); err != nil {
			t.Errorf("unevenBlobs(%d): %v", seed, err)
		}
	}
}

// TestRefineHammingKMeansMatchesReference does the same for the incremental
// refinement, warm-started both from a trained codebook and from raw points
// (duplicates included).
func TestRefineHammingKMeansMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, width := range refWidths {
		shapes := pointShapes(rng, width)
		trained, err := refHammingKMeans(shapes["blobs"], 7, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		starts := map[string][]vec.BitVec{
			"trained": trained.Centroids,
			"dups":    shapes["dups"][:5],
			"one":     shapes["uniform"][:1],
		}
		for start, prev := range starts {
			for shape, delta := range shapes {
				for _, pw := range []int{1, 2, 4, 7} {
					for _, maxIter := range []int{1, 2, 15} {
						opts := RefineOptions{MaxIter: maxIter, PriorWeight: pw}
						if err := refineMatchesReference(prev, delta, opts); err != nil {
							t.Errorf("width %d from %s delta %s PriorWeight %d MaxIter %d: %v", width, start, shape, pw, maxIter, err)
						}
					}
				}
			}
		}
	}
}

// FuzzHammingKMeans runs both k-means on point sets spelled by the fuzzer
// and holds them to the reference. The header picks the width (1–200 bits),
// point count (1–64), k (1–70, so past the point count too), PriorWeight,
// MaxIter and seed; the rest of the bytes, cycled, are the points' bits, so
// a short input yields repeated points and ties.
func FuzzHammingKMeans(f *testing.F) {
	f.Add([]byte{63, 20, 4, 3, 15, 1, 0xa5, 0x5a, 0xff, 0x00, 0x13})
	f.Add([]byte{0, 9, 6, 1, 2, 7, 0x01})
	f.Add([]byte{69, 63, 69, 6, 15, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		width, count := 1+int(data[0])%200, 1+int(data[1])%64
		k, pw, maxIter, seed := 1+int(data[2])%70, 1+int(data[3])%8, 1+int(data[4])%16, int64(data[5])
		bits := data[6:]
		points := make([]vec.BitVec, count)
		for i := range points {
			points[i] = vec.NewBitVec(width)
			for b := 0; b < width; b++ {
				j := i*width + b
				points[i].Set(b, bits[j/8%len(bits)]>>(j%8)&1 == 1)
			}
		}
		if err := matchesReference(points, k, Options{Seed: seed, MaxIter: maxIter}); err != nil {
			t.Fatalf("HammingKMeans: %v", err)
		}
		prev := points[:min(k, count)]
		if err := refineMatchesReference(prev, points, RefineOptions{MaxIter: maxIter, PriorWeight: pw}); err != nil {
			t.Fatalf("RefineHammingKMeans: %v", err)
		}
	})
}

// codeWords unpacks v's packed words from the binary codec that carries it
// on the wire (eight big-endian bytes a word, bit i at bit i%64 of word
// i/64), so a test reads a code without an accessor of its own.
func codeWords(v vec.BitVec) []uint64 {
	enc := vec.AppendBitVecs(nil, []vec.BitVec{v})
	enc = enc[len(enc)-8*((v.Len()+63)/64):]
	words := make([]uint64, len(enc)/8)
	for i := range words {
		words[i] = binary.BigEndian.Uint64(enc[8*i:])
	}
	return words
}

// unpackBits unpacks v into one bool per bit.
func unpackBits(v vec.BitVec) []bool {
	words := codeWords(v)
	out := make([]bool, v.Len())
	for i := range out {
		out[i] = words[i/64]>>(i%64)&1 == 1
	}
	return out
}

// sameBits reports whether a and b have the same length and bits.
func sameBits(a, b vec.BitVec) bool { return a.Len() == b.Len() && vec.Hamming(a, b) == 0 }

// nearestHamming is the reference scan: p's nearest centroid, the lowest
// index winning a tie, and its distance.
func nearestHamming(centroids []vec.BitVec, p vec.BitVec) (int, int) {
	best, bestD := 0, vec.Hamming(p, centroids[0])
	for c := 1; c < len(centroids); c++ {
		if d := vec.Hamming(p, centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}
