package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"mie/internal/cluster"
	"mie/internal/dpe"
	"mie/internal/fusion"
	"mie/internal/index"
	"mie/internal/vec"
)

// requireSameHits fails unless the two repositories answer the query with
// the same objects at the same scores, and with some.
func requireSameHits(t *testing.T, c *Client, a, b *Repository, query *Object) {
	t.Helper()
	q, err := c.PrepareQuery(query, 8)
	if err != nil {
		t.Fatal(err)
	}
	hitsA, err := a.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	hitsB, err := b.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hitsA) == 0 || len(hitsA) != len(hitsB) {
		t.Fatalf("%s returned %d hits, %s %d", a.ID(), len(hitsA), b.ID(), len(hitsB))
	}
	for i := range hitsA {
		if hitsA[i].ObjectID != hitsB[i].ObjectID || hitsA[i].Score != hitsB[i].Score {
			t.Fatalf("rank %d diverges: %s (%s, %v) vs %s (%s, %v)",
				i, a.ID(), hitsA[i].ObjectID, hitsA[i].Score, b.ID(), hitsB[i].ObjectID, hitsB[i].Score)
		}
	}
}

// putObject encodes obj and stores it.
func putObject(t *testing.T, c *Client, r *Repository, obj *Object) {
	t.Helper()
	up, err := c.PrepareUpdate(obj, testDataKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
}

// liveHeap returns the bytes of heap objects that survive a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// randomCode draws a uniformly random code of n bits.
func randomCode(rng *rand.Rand, n int) vec.BitVec {
	v := vec.NewBitVec(n)
	for w := 0; w < (n+63)/64; w++ {
		v.SetWord(w, rng.Uint64())
	}
	return v
}

// nearCode returns a copy of v with up to flips random bits flipped.
func nearCode(rng *rand.Rand, v vec.BitVec, flips int) vec.BitVec {
	out := v.Clone()
	for i := rng.Intn(flips + 1); i > 0; i-- {
		b := rng.Intn(out.Len())
		out.Set(b, !out.Get(b))
	}
	return out
}

// naiveScan is the reference the untrained dense path is held to: for every
// object carrying encodings of the modality, each query encoding adds one
// minus its normalized Hamming distance to the object's nearest encoding, in
// query order; objects scoring above zero rank by score, then by id, and the
// first depth are kept. Distances are counted bit by bit.
func naiveScan(live map[string]*Update, encs func(*Update) []vec.BitVec, query []vec.BitVec, depth int) []index.Result {
	var out []index.Result
	for id, up := range live {
		codes := encs(up)
		if len(codes) == 0 {
			continue
		}
		var s float64
		for _, qe := range query {
			best := 1.0
			for _, c := range codes {
				diff := 0
				for b := 0; b < qe.Len(); b++ {
					if qe.Get(b) != c.Get(b) {
						diff++
					}
				}
				best = min(best, float64(diff)/float64(qe.Len()))
			}
			s += 1 - best
		}
		if s > 0 {
			out = append(out, index.Result{Doc: index.DocID(id), Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out[:min(depth, len(out))]
}

// requireSameResults fails unless got equals want in ids and score bits.
func requireSameResults(t *testing.T, what string, got, want []index.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d is (%s, %v), want (%s, %v)", what, i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
		}
	}
}

// traceModality is one dense modality of the exact-scan trace: its code
// length, where an update carries its codes, and every code drawn so far.
type traceModality struct {
	modality Modality
	bits     int
	encs     func(*Update) []vec.BitVec
	pool     []vec.BitVec
}

// TestUntrainedSearchIsExact holds the dense search of a modality without a
// codebook to naiveScan, bit for bit, across seeded add/overwrite/remove
// traces that grow each repository past 4 096 image codes, with
// Snapshot→LoadRepository round trips on the way. The trace runs on an
// untrained repository and on one trained while it held only text, whose
// dense modalities still have no codebook. After every checkpoint the
// modality's lookup must equal the reference in ids and raw score bits, and
// Search the reference's fused top k.
func TestUntrainedSearchIsExact(t *testing.T) {
	const steps, checkEvery, restoreEvery = 1200, 100, 400
	for _, tc := range []struct {
		name      string
		seed      int64
		textFirst bool
	}{
		{"untrained", 1, false},
		{"trained on text alone", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			r, err := NewRepository("exact", smallRepoOptions())
			if err != nil {
				t.Fatal(err)
			}
			live := make(map[string]*Update)
			put := func(up *Update) {
				t.Helper()
				if err := r.Update(up); err != nil {
					t.Fatal(err)
				}
				live[up.ObjectID] = up
			}
			if tc.textFirst {
				for i := 0; i < 5; i++ {
					put(&Update{ObjectID: fmt.Sprintf("text-%d", i), Owner: "u", TextTokens: map[dpe.Token]uint64{{byte(i)}: 1}})
				}
				if err := r.Train(); err != nil {
					t.Fatal(err)
				}
				if !r.IsTrained() || r.VocabularySize() != 0 || r.AudioVocabularySize() != 0 {
					t.Fatalf("trained on text alone: trained=%v, codebooks of %d and %d words",
						r.IsTrained(), r.VocabularySize(), r.AudioVocabularySize())
				}
			}

			// Image codes are 120 bits, audio codes 72: lengths that are not
			// powers of two give distances no float type holds exactly, so
			// score bits depend on how they are accumulated, and neither is a
			// whole number of words. A third of the stored codes are near
			// copies of earlier ones, so rankings hold near ties and exact ones.
			dense := []traceModality{
				{modality: ModalityImage, bits: 120, encs: func(up *Update) []vec.BitVec { return up.ImageEncodings }},
				{modality: ModalityAudio, bits: 72, encs: func(up *Update) []vec.BitVec { return up.AudioEncodings }},
			}
			draw := func(m int, n int) []vec.BitVec {
				d := &dense[m]
				var out []vec.BitVec
				for ; n > 0; n-- {
					c := randomCode(rng, d.bits)
					if len(d.pool) > 0 && rng.Intn(3) == 0 {
						c = nearCode(rng, d.pool[rng.Intn(len(d.pool))], 6)
					}
					d.pool = append(d.pool, c)
					out = append(out, c)
				}
				return out
			}
			liveIDs := func() []string {
				ids := make([]string, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				return ids
			}

			check := func(step int) {
				t.Helper()
				st := r.state.Load()
				for i, eng := range st.engines {
					m := slices.IndexFunc(dense, func(d traceModality) bool { return d.modality == eng.Modality() })
					if m < 0 {
						continue
					}
					if st.indexed(i) {
						t.Fatalf("step %d: %s is answered from an inverted index", step, eng.Modality())
					}
					d := dense[m]
					query := []vec.BitVec{randomCode(rng, d.bits), nearCode(rng, d.pool[rng.Intn(len(d.pool))], 10), nearCode(rng, d.pool[rng.Intn(len(d.pool))], 3)}
					q := &Query{K: 5}
					if d.modality == ModalityImage {
						q.ImageEncodings = query
					} else {
						q.AudioEncodings = query
					}
					depth := 10 * q.K
					want := naiveScan(live, d.encs, query, depth)
					got, err := r.searchModality(st, i, eng, q, depth)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResults(t, fmt.Sprintf("step %d %s lookup", step, d.modality), got, want)
					hits, err := r.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					fused := make([]index.Result, len(hits))
					for j, h := range hits {
						fused[j] = index.Result{Doc: index.DocID(h.ObjectID), Score: h.Score}
					}
					requireSameResults(t, fmt.Sprintf("step %d %s search", step, d.modality), fused,
						fusion.Fuse(fusion.LogISR, [][]index.Result{want}, q.K))
				}
			}

			next := 0
			for step := 1; step <= steps; step++ {
				switch roll := rng.Intn(10); {
				case roll < 7 || len(live) < 2: // a new object
					up := &Update{ObjectID: fmt.Sprintf("obj-%04d", next), Owner: "u",
						TextTokens: map[dpe.Token]uint64{{0xee, byte(next)}: 1}}
					next++
					up.ImageEncodings = draw(0, rng.Intn(16))
					up.AudioEncodings = draw(1, rng.Intn(8))
					put(up)
				case roll < 9: // an overwrite: new codes under a live id
					ids := liveIDs()
					prev := live[ids[rng.Intn(len(ids))]]
					up := &Update{ObjectID: prev.ObjectID, Owner: "u", TextTokens: prev.TextTokens}
					up.ImageEncodings = draw(0, rng.Intn(16))
					up.AudioEncodings = draw(1, rng.Intn(8))
					put(up)
				default:
					ids := liveIDs()
					id := ids[rng.Intn(len(ids))]
					if err := r.Remove(id); err != nil {
						t.Fatal(err)
					}
					delete(live, id)
				}
				if step%restoreEvery == 0 {
					var buf bytes.Buffer
					if err := r.Snapshot(&buf); err != nil {
						t.Fatal(err)
					}
					if r, err = LoadRepository(&buf); err != nil {
						t.Fatal(err)
					}
				}
				if step%checkEvery == 0 {
					check(step)
				}
			}
			codes := 0
			for _, up := range live {
				codes += len(up.ImageEncodings)
			}
			if codes <= 4096 {
				t.Fatalf("the trace ended on %d image codes; it must pass 4096", codes)
			}
		})
	}
}

// imageEncodings is where an update carries its image codes.
func imageEncodings(up *Update) []vec.BitVec { return up.ImageEncodings }

// fillLive uploads perClass objects of each class, like fillRepo, and returns
// the stored updates by id for naiveScan.
func fillLive(t *testing.T, c *Client, r *Repository, perClass, classes int) map[string]*Update {
	t.Helper()
	live := make(map[string]*Update)
	for cls := 0; cls < classes; cls++ {
		for i := 0; i < perClass; i++ {
			up, err := c.PrepareUpdate(testObject(cls, i), testDataKey(3))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Update(up); err != nil {
				t.Fatal(err)
			}
			live[up.ObjectID] = up
		}
	}
	return live
}

// requireExactImageLookup fails unless r answers the image part of query
// from the exact scan, equal to naiveScan over live in ids and score bits.
// For an image-only query, Search must also return the reference's fused
// top k.
func requireExactImageLookup(t *testing.T, c *Client, r *Repository, live map[string]*Update, query *Object) {
	t.Helper()
	q, err := c.PrepareQuery(query, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := r.state.Load()
	i := slices.IndexFunc(st.engines, func(eng ModalityEngine) bool { return eng.Modality() == ModalityImage })
	if i < 0 {
		t.Fatal("no image engine")
	}
	if st.indexed(i) {
		t.Fatal("image is answered from an inverted index")
	}
	depth := 10 * q.K
	want := naiveScan(live, imageEncodings, q.ImageEncodings, depth)
	if len(want) == 0 {
		t.Fatal("the reference scores nothing; the query exercises no ranking")
	}
	got, err := r.searchModality(st, i, st.engines[i], q, depth)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "image lookup", got, want)
	if query.Text != "" {
		return
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	fused := make([]index.Result, len(hits))
	for j, h := range hits {
		fused[j] = index.Result{Doc: index.DocID(h.ObjectID), Score: h.Score}
	}
	requireSameResults(t, "image search", fused, fusion.Fuse(fusion.LogISR, [][]index.Result{want}, q.K))
}

// TestANNExhaustiveParity holds untrained image search over client-encoded
// objects to naiveScan: once against an ANN-routed search under an
// exhaustive probe, now against the exact scan that is the only path. The
// text + image query checks the image list that fusion ranks from.
func TestANNExhaustiveParity(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("parity", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	live := fillLive(t, c, r, 6, 3)
	for _, query := range []*Object{
		{Image: classImage(0, 500)},
		{Image: classImage(1, 501)},
		{Image: classImage(2, 502)},
		testObject(1, 503),
	} {
		requireExactImageLookup(t, c, r, live, query)
	}
}

// TestANNMaintenanceFollowsMutations: an overwrite with other codes and a
// remove reach untrained image search at once — after each, the lookup
// equals naiveScan over what is live, and the removed object never surfaces.
func TestANNMaintenanceFollowsMutations(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("maint", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	live := fillLive(t, c, r, 4, 2)
	query := &Object{Image: classImage(0, 990)}
	requireExactImageLookup(t, c, r, live, query)

	// Overwrite: a class-0 id takes a class-1 image.
	up, err := c.PrepareUpdate(&Object{ID: "obj-c0-0", Owner: "user1", Image: classImage(1, 991)}, testDataKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
	live[up.ObjectID] = up
	requireExactImageLookup(t, c, r, live, query)

	// Remove: the object must vanish from the results.
	if err := r.Remove("obj-c0-1"); err != nil {
		t.Fatal(err)
	}
	delete(live, "obj-c0-1")
	requireExactImageLookup(t, c, r, live, query)
	for _, id := range searchIDs(t, c, r, query, 8) {
		if id == "obj-c0-1" {
			t.Fatal("removed object surfaced in untrained search")
		}
	}
}

// TestANNSnapshotRoundTripUntrained: an untrained repository restored from
// its snapshot answers as it did before, hit for hit and score for score,
// and both answers are the exact scan's.
func TestANNSnapshotRoundTripUntrained(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("snap", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	live := fillLive(t, c, r, 5, 3)
	query := &Object{Image: classImage(2, 88)}
	requireExactImageLookup(t, c, r, live, query)

	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.IsTrained() {
		t.Fatal("untrained snapshot restored trained")
	}
	requireSameHits(t, c, r, restored, query)
	requireExactImageLookup(t, c, restored, live, query)
}

// TestEncodingLengthMismatchIsRefused: a dense encoding the engine cannot
// compare with the codes of its modality is refused with ErrEncodingLength —
// an update before anything is logged (on the follower-apply path too), a
// query before any distance is taken — and the repository goes on serving
// what it holds, before and after a restart. Each row used to panic.
func TestEncodingLengthMismatchIsRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	codes := func(bits ...int) []vec.BitVec {
		out := make([]vec.BitVec, len(bits))
		for i, n := range bits {
			out[i] = randomCode(rng, n)
		}
		return out
	}
	object := func(id string, encs []vec.BitVec) *Update {
		return &Update{ObjectID: id, Owner: "u", TextTokens: map[dpe.Token]uint64{{0xaa}: 1}, ImageEncodings: encs}
	}
	opts := smallRepoOptions()
	opts.Modalities = []Modality{ModalityText, ModalityImage}
	for _, tc := range []struct {
		name    string
		trained bool
		update  *Update      // refused, when set
		query   []vec.BitVec // refused, when set
	}{
		{name: "untrained: an update of another length", update: object("x", codes(256))},
		{name: "untrained: an update mixing lengths", update: object("x", codes(128, 256))},
		{name: "untrained: a query of another length", query: codes(256)},
		{name: "trained: an update of another length", trained: true, update: object("x", codes(256))},
		{name: "trained: a query of another length", trained: true, query: codes(128, 256)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			svc, _, err := OpenService(ServiceOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			r, err := svc.CreateRepository("lengths", opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				if err := r.Update(object(fmt.Sprintf("o%02d", i), codes(128, 128, 128))); err != nil {
					t.Fatal(err)
				}
			}
			if tc.trained {
				if err := r.Train(); err != nil {
					t.Fatal(err)
				}
			}
			logSize := func() int64 {
				fi, err := os.Stat(filepath.Join(dir, walFileName("lengths")))
				if err != nil {
					t.Fatal(err)
				}
				return fi.Size()
			}
			held := &Query{K: 3, ImageEncodings: codes(128)}
			answers := func(r *Repository) {
				t.Helper()
				hits, err := r.Search(held)
				if err != nil || len(hits) == 0 {
					t.Fatalf("a query of the held length: %d hits, err %v", len(hits), err)
				}
			}
			if tc.update != nil {
				before := logSize()
				if err := r.Update(tc.update); !errors.Is(err, ErrEncodingLength) {
					t.Fatalf("update err = %v, want ErrEncodingLength", err)
				}
				if err := r.apply(encodeWALRecord(tc.update, tc.update.ObjectID)); !errors.Is(err, ErrEncodingLength) {
					t.Fatalf("apply err = %v, want ErrEncodingLength", err)
				}
				if got := logSize(); got != before {
					t.Errorf("the refused update reached the log: %d -> %d bytes", before, got)
				}
				if _, _, err := r.Get(tc.update.ObjectID); !errors.Is(err, ErrUnknownObject) {
					t.Errorf("the refused update was stored: err = %v", err)
				}
			}
			if tc.query != nil {
				if _, err := r.Search(&Query{K: 3, ImageEncodings: tc.query}); !errors.Is(err, ErrEncodingLength) {
					t.Fatalf("search err = %v, want ErrEncodingLength", err)
				}
			}
			answers(r)
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			svc, _, err = OpenService(ServiceOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = svc.Close() }()
			if r, err = svc.Repository("lengths"); err != nil {
				t.Fatal(err)
			}
			answers(r)
		})
	}
}

// spineShapeUpdates draws n updates at the benchmark spine's object shape: a
// 10 KB ciphertext, a few text tokens and 29 image codes of 2048 bits (random
// ones: nothing here depends on their geometry).
func spineShapeUpdates(rng *rand.Rand, n int) []*Update {
	const codes, nbits = 29, 2048
	ups := make([]*Update, n)
	for i := range ups {
		up := &Update{ObjectID: fmt.Sprintf("spine-%03d", i), Owner: "u", Ciphertext: make([]byte, 10<<10),
			TextTokens: map[dpe.Token]uint64{{byte(i), byte(i >> 8)}: 1, {0xff, byte(i % 5)}: 2}}
		rng.Read(up.Ciphertext)
		for j := 0; j < codes; j++ {
			up.ImageEncodings = append(up.ImageEncodings, randomCode(rng, nbits))
		}
		ups[i] = up
	}
	return ups
}

// TestTrainedOverwritesDoNotGrowTheHeap holds a trained repository at the
// benchmark's object shape (29 codes of 2048 bits) under overwrite churn:
// each code is stored once, so replacing objects with equals leaves the live
// heap where it was. (When every code was also mirrored into a candidate
// index nobody compacted, each overwrite left 7.4 KB behind.)
func TestTrainedOverwritesDoNotGrowTheHeap(t *testing.T) {
	const objects, overwrites = 48, 5000
	ups := spineShapeUpdates(rand.New(rand.NewSource(5)), objects)
	r, err := NewRepository("overwrite-heap", RepositoryOptions{
		Modalities: []Modality{ModalityText, ModalityImage},
		Vocab:      cluster.VocabParams{Words: 20, Tree: cluster.TreeParams{Branch: 3, Height: 2, Seed: 1}, Seed: 1, MaxIter: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	for _, up := range ups {
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		r.CompactNow() // the inverted indexes' own garbage is not what is measured
		return int64(liveHeap())
	}
	resident, before := r.ResidentBytes(), heap()
	for i := 0; i < overwrites; i++ {
		if err := r.Update(ups[i%objects]); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.ResidentBytes(); got != resident {
		t.Errorf("ResidentBytes %d -> %d over %d overwrites", resident, got, overwrites)
	}
	// A mirrored copy would add overwrites × 29 codes × 256 bytes = 37 MB.
	const bound = 8 << 20
	grown := heap() - before
	t.Logf("live heap moved by %d bytes over %d overwrites", grown, overwrites)
	if grown > bound {
		t.Errorf("live heap grew by %d bytes over %d overwrites of existing objects, want <= %d", grown, overwrites, bound)
	}
}

// TestSearchDuringFirstTrainAndChurn races searches against training and
// update/remove churn, under -race. Across the first Train's install the
// image modality moves from the exact scan to its inverted index while
// searches that loaded the untrained epoch may still be scanning the store;
// searching and churning carry on across that install and the incremental
// ones after it.
func TestSearchDuringFirstTrainAndChurn(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("train-churn", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 5, 3)
	q, err := c.PrepareQuery(&Object{Image: classImage(1, 700)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // churn: replace and remove/re-add objects
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := i % 5
			if i%3 == 0 {
				_ = r.Remove(fmt.Sprintf("obj-c%d-%d", i%3, id))
				continue
			}
			up, err := c.PrepareUpdate(testObject(i%3, id), testDataKey(3))
			if err == nil {
				_ = r.Update(up)
			}
		}
	}()
	trained := make(chan struct{})
	wg.Add(1)
	go func() { // trains: full, then incremental
		defer wg.Done()
		defer close(trained)
		for i := 0; i < 3; i++ {
			if err := r.Train(); err != nil {
				t.Errorf("train: %v", err)
				return
			}
		}
	}()
	for i, done := 0, false; i < 200 || !done; i++ {
		if _, err := r.Search(q); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		select {
		case <-trained:
			done = true
		default:
		}
	}
	close(stop)
	wg.Wait()
}

// annGoldenExpect pins the ranking a fixed pre-training query returned when
// the golden fixture was written.
type annGoldenExpect struct {
	Objects   int      `json:"objects"`
	RankedIDs []string `json:"ranked_ids"`
}

// TestGoldenANNRestore pins an untrained snapshot written by a build that
// still had an approximate dense path: its options carry the legacy ANN
// field, which must not stop it loading, and the ranked ids its fixed query
// returned were taken under an exhaustive probe budget, so they are the
// exact ranking — what LoadRepository and the linear scan must reproduce
// today. Regenerate deliberately (the new snapshot no longer carries the
// legacy field) with
//
//	go test ./internal/core -run GoldenANNRestore -update
func TestGoldenANNRestore(t *testing.T) {
	snapPath := filepath.Join("testdata", "golden-ann.snap")
	expectPath := filepath.Join("testdata", "golden-ann.json")
	c := testClient(t)
	query := &Object{Image: classImage(1, 77)}

	if *updateGolden {
		r, err := NewRepository("golden-ann", smallRepoOptions())
		if err != nil {
			t.Fatal(err)
		}
		fillRepo(t, c, r, 4, 3)
		f, err := os.Create(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Snapshot(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		exp := annGoldenExpect{
			Objects:   r.Size(),
			RankedIDs: searchIDs(t, c, r, query, 6),
		}
		blob, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expectPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s and %s", snapPath, expectPath)
	}

	blob, err := os.ReadFile(expectPath)
	if err != nil {
		t.Fatalf("read golden expectations (run with -update to regenerate): %v", err)
	}
	var want annGoldenExpect
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatalf("open golden snapshot (run with -update to regenerate): %v", err)
	}
	defer func() { _ = f.Close() }()
	r, err := LoadRepository(f)
	if err != nil {
		t.Fatalf("golden ANN snapshot no longer loads: %v", err)
	}
	if r.IsTrained() {
		t.Fatal("golden ANN fixture restored trained; it must exercise the pre-training scan")
	}
	if r.Size() != want.Objects {
		t.Errorf("restored %d objects, want %d", r.Size(), want.Objects)
	}
	got := searchIDs(t, c, r, query, 6)
	if len(got) != len(want.RankedIDs) {
		t.Fatalf("search returned %v, want %v", got, want.RankedIDs)
	}
	for i := range got {
		if got[i] != want.RankedIDs[i] {
			t.Fatalf("rank %d: %s, want %s (full: %v vs %v)", i, got[i], want.RankedIDs[i], got, want.RankedIDs)
		}
	}
}
