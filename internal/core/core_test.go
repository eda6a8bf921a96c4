package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mie/internal/cluster"
	"mie/internal/crypto"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/index"
)

func testRepoKey(b byte) RepositoryKey {
	var k crypto.Key
	for i := range k {
		k[i] = b
	}
	return RepositoryKey{Master: k}
}

func testDataKey(b byte) crypto.Key {
	var k crypto.Key
	for i := range k {
		k[i] = b + 100
	}
	return k
}

// testClient uses a small Dense-DPE and a single 16px pyramid scale so tests
// stay fast.
func testClient(t *testing.T) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Key:     testRepoKey(1),
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 256, Threshold: 0.5},
		Pyramid: imaging.PyramidParams{Scales: []int{16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// classImage produces a 32x32 image from one of nClasses base patterns with
// small per-instance noise, so images of a class are mutually similar.
func classImage(class int, instance int64) *imaging.Image {
	base := rand.New(rand.NewSource(int64(class) * 1000))
	noise := rand.New(rand.NewSource(instance + int64(class)*7919 + 1))
	im, err := imaging.NewImage(32, 32)
	if err != nil {
		panic(err) // impossible: fixed valid dimensions
	}
	for i := range im.Pix {
		im.Pix[i] = base.Float64()*0.9 + noise.Float64()*0.1
	}
	return im
}

func testObject(class int, n int) *Object {
	topics := []string{
		"beach sand ocean waves sunny holiday",
		"mountain snow hiking trail peaks climbing",
		"city skyline buildings night lights urban",
	}
	return &Object{
		ID:    fmt.Sprintf("obj-c%d-%d", class, n),
		Owner: "user1",
		Text:  topics[class%len(topics)],
		Image: classImage(class, int64(n)),
	}
}

func smallRepoOptions(string) RepositoryOptions {
	return RepositoryOptions{
		Vocab: cluster.VocabParams{
			Words:   20,
			Tree:    cluster.TreeParams{Branch: 3, Height: 2, Seed: 1},
			Seed:    1,
			MaxIter: 10,
		},
	}
}

func TestPrepareUpdateValidation(t *testing.T) {
	c := testClient(t)
	if _, err := c.PrepareUpdate(&Object{Text: "x"}, testDataKey(1)); err == nil {
		t.Error("expected error for missing ID")
	}
	if _, err := c.PrepareUpdate(&Object{ID: "a"}, testDataKey(1)); !errors.Is(err, ErrEmptyObject) {
		t.Errorf("err = %v, want ErrEmptyObject", err)
	}
}

func TestPrepareQueryValidation(t *testing.T) {
	c := testClient(t)
	if _, err := c.PrepareQuery(&Object{Text: "x"}, 0); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := c.PrepareQuery(&Object{}, 3); !errors.Is(err, ErrEmptyObject) {
		t.Errorf("err = %v, want ErrEmptyObject", err)
	}
}

// TestPrepareSurfacesEncodeErrors: a descriptor the Dense-DPE kernel refuses
// fails the whole prepare with the dpe sentinel still matchable through the
// core wrap — a non-finite pixel must not turn into codes that depend on the
// CPU doing the float-to-integer conversion.
func TestPrepareSurfacesEncodeErrors(t *testing.T) {
	withPixel := func(v float64) *Object {
		obj := testObject(0, 1)
		obj.Image.Pix[5*32+7] = v
		return obj
	}
	wrongDim, err := NewClient(ClientConfig{
		Key:     testRepoKey(1),
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim / 2, OutDim: 256, Threshold: 0.5},
		Pyramid: imaging.PyramidParams{Scales: []int{16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		client *Client
		obj    *Object
		want   error
	}{
		{"NaN pixel", testClient(t), withPixel(math.NaN()), dpe.ErrNonFinite},
		{"+Inf pixel", testClient(t), withPixel(math.Inf(1)), dpe.ErrNonFinite},
		{"descriptor dimension", wrongDim, testObject(0, 1), dpe.ErrBadDimension},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if up, err := tt.client.PrepareUpdate(tt.obj, testDataKey(1)); !errors.Is(err, tt.want) || up != nil {
				t.Errorf("PrepareUpdate = %v, %v; want nil, %v", up, err, tt.want)
			}
			if q, err := tt.client.PrepareQuery(tt.obj, 3); !errors.Is(err, tt.want) || q != nil {
				t.Errorf("PrepareQuery = %v, %v; want nil, %v", q, err, tt.want)
			}
		})
	}
}

func TestPrepareUpdateShape(t *testing.T) {
	c := testClient(t)
	obj := testObject(0, 1)
	up, err := c.PrepareUpdate(obj, testDataKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if up.ObjectID != obj.ID || up.Owner != obj.Owner {
		t.Error("identity fields not propagated")
	}
	if len(up.Ciphertext) == 0 {
		t.Error("missing ciphertext")
	}
	if len(up.TextTokens) == 0 {
		t.Error("missing text tokens")
	}
	wantDescs := len(imaging.DensePyramid(32, 32, imaging.PyramidParams{Scales: []int{16}}))
	if len(up.ImageEncodings) != wantDescs {
		t.Errorf("got %d encodings, want %d", len(up.ImageEncodings), wantDescs)
	}
}

func TestUpdateTokensDeterministicAcrossClients(t *testing.T) {
	// Two clients sharing the repository key must produce identical tokens
	// — that is what lets multiple users write to one shared index.
	c1 := testClient(t)
	c2, err := NewClient(ClientConfig{
		Key:     testRepoKey(1),
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 256, Threshold: 0.5},
		Pyramid: imaging.PyramidParams{Scales: []int{16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := testObject(1, 2)
	u1, err := c1.PrepareUpdate(obj, testDataKey(1))
	if err != nil {
		t.Fatal(err)
	}
	u2, err := c2.PrepareUpdate(obj, testDataKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(u1.TextTokens) != len(u2.TextTokens) {
		t.Fatal("token sets differ in size")
	}
	for tok, f := range u1.TextTokens {
		if u2.TextTokens[tok] != f {
			t.Fatalf("token %s freq %d vs %d", tok, f, u2.TextTokens[tok])
		}
	}
	for i := range u1.ImageEncodings {
		if !u1.ImageEncodings[i].Equal(u2.ImageEncodings[i]) {
			t.Fatalf("encoding %d differs across clients", i)
		}
	}
}

func TestObjectRoundTrip(t *testing.T) {
	c := testClient(t)
	obj := testObject(2, 3)
	dk := testDataKey(2)
	up, err := c.PrepareUpdate(obj, dk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptObject(up.Ciphertext, dk)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != obj.ID || got.Text != obj.Text {
		t.Error("decrypted object differs")
	}
	if got.Image == nil || got.Image.W != obj.Image.W {
		t.Error("decrypted image differs")
	}
	// Wrong key must not decrypt.
	if _, err := DecryptObject(up.Ciphertext, testDataKey(9)); err == nil {
		t.Error("wrong data key decrypted the object")
	}
}

func TestModalities(t *testing.T) {
	o := &Object{ID: "x", Text: "hi"}
	if ms := o.Modalities(); len(ms) != 1 || ms[0] != ModalityText {
		t.Errorf("Modalities = %v", ms)
	}
	o.Image = classImage(0, 1)
	if ms := o.Modalities(); len(ms) != 2 {
		t.Errorf("Modalities = %v", ms)
	}
}

// fillRepo uploads n objects per class.
func fillRepo(t *testing.T, c *Client, r *Repository, perClass, classes int) {
	t.Helper()
	for cls := 0; cls < classes; cls++ {
		for i := 0; i < perClass; i++ {
			up, err := c.PrepareUpdate(testObject(cls, i), testDataKey(3))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Update(up); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRepositoryLinearSearchBeforeTraining(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("repo1", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 5, 3)
	if r.IsTrained() {
		t.Fatal("repository claims trained before Train")
	}
	q, err := c.PrepareQuery(testObject(1, 99), 5)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("linear search returned nothing")
	}
	// Majority of top hits should be class 1.
	sameClass := 0
	for _, h := range hits {
		var cls, n int
		if _, err := fmt.Sscanf(h.ObjectID, "obj-c%d-%d", &cls, &n); err == nil && cls == 1 {
			sameClass++
		}
	}
	if sameClass < 3 {
		t.Errorf("only %d/%d top hits from the query's class: %+v", sameClass, len(hits), hits)
	}
}

func TestRepositoryTrainedSearch(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("repo2", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 6, 3)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if !r.IsTrained() {
		t.Fatal("not trained after Train")
	}
	if r.VocabularySize() == 0 {
		t.Fatal("empty vocabulary after training")
	}
	q, err := c.PrepareQuery(testObject(2, 50), 5)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("trained search returned nothing")
	}
	sameClass := 0
	for _, h := range hits {
		var cls, n int
		if _, err := fmt.Sscanf(h.ObjectID, "obj-c%d-%d", &cls, &n); err == nil && cls == 2 {
			sameClass++
		}
	}
	if sameClass < 3 {
		t.Errorf("only %d/%d trained-search hits from the query's class: %+v", sameClass, len(hits), hits)
	}
}

// One node asked the same multimodal query again and again returns the same
// bits. Per-document scores are float sums over the query's terms, and the
// fixture makes the order of that sum decide a ranking: the "up" and "down"
// documents hold the same three equally rare words with frequencies 1,2,3 and
// 3,2,1, so their text scores are equal on paper and differ in the last bit
// depending on which word is added first (20 text documents, 12 holding each
// word: (i+2i)+3i != (3i+2i)+i for i = ln(20/12)). Walking the query's terms in
// map order reshuffled those ranks from one call to the next.
func TestRepeatedSearchIsBitIdentical(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("repeat", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	add := func(id, words string, class, n int) {
		t.Helper()
		up, err := c.PrepareUpdate(&Object{ID: id, Owner: "user1", Text: words, Image: classImage(class, int64(n))}, testDataKey(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		add(fmt.Sprintf("up-%d", i), "alpha beta beta gamma gamma gamma", 0, i)
		add(fmt.Sprintf("down-%d", i), "alpha alpha alpha beta beta gamma", 1, i)
	}
	for i := 0; i < 8; i++ {
		add(fmt.Sprintf("filler-%d", i), "mountain snow hiking trail", 2, i)
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	// The last pair arrives after training, so the memtable is scored too.
	add("up-5", "alpha beta beta gamma gamma gamma", 0, 5)
	add("down-5", "alpha alpha alpha beta beta gamma", 1, 5)

	q, err := c.PrepareQuery(&Object{Text: "alpha beta gamma", Image: classImage(0, 77)}, 10)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 10 {
		t.Fatalf("%d hits, want 10", len(first))
	}
	for run := 1; run < 200; run++ {
		hits, err := r.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(first) {
			t.Fatalf("run %d: %d hits, first run had %d", run, len(hits), len(first))
		}
		for i := range hits {
			if hits[i].ObjectID != first[i].ObjectID || math.Float64bits(hits[i].Score) != math.Float64bits(first[i].Score) {
				t.Fatalf("run %d, rank %d: (%s, %x), first run had (%s, %x)", run, i,
					hits[i].ObjectID, math.Float64bits(hits[i].Score), first[i].ObjectID, math.Float64bits(first[i].Score))
			}
		}
	}
}

func TestUpdateAfterTrainingIsIndexed(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("repo3", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 4, 2)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	// A brand-new object with a distinctive keyword arrives post-training.
	novel := &Object{ID: "late", Owner: "user2", Text: "zanzibar spice festival unique"}
	up, err := c.PrepareUpdate(novel, testDataKey(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
	q, err := c.PrepareQuery(&Object{ID: "q", Text: "zanzibar festival"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ObjectID != "late" {
		t.Errorf("dynamically added object not retrievable: %+v", hits)
	}
	if hits[0].Owner != "user2" {
		t.Errorf("owner metadata = %q, want user2", hits[0].Owner)
	}
}

func TestRemove(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("repo4", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 3, 2)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	victim := "obj-c0-1"
	r.Remove(victim)
	if r.Size() != 5 {
		t.Errorf("Size = %d, want 5", r.Size())
	}
	if _, _, err := r.Get(victim); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("Get removed: err = %v", err)
	}
	q, err := c.PrepareQuery(testObject(0, 77), 10)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.ObjectID == victim {
			t.Error("removed object surfaced in search")
		}
	}
	r.Remove("no-such-object") // no-op
}

func TestUpdateReplacesExisting(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("repo5", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 3, 2)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	// Replace obj-c0-0's content entirely.
	newVersion := &Object{ID: "obj-c0-0", Owner: "user1", Text: "quetzal rainforest bird"}
	up, err := c.PrepareUpdate(newVersion, testDataKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 6 {
		t.Errorf("Size = %d, want 6 after in-place update", r.Size())
	}
	q, err := c.PrepareQuery(&Object{ID: "q", Text: "quetzal"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ObjectID != "obj-c0-0" {
		t.Errorf("updated content not searchable: %+v", hits)
	}
}

func TestTrainEmptyRepository(t *testing.T) {
	// Training with no dense data is legal (sparse modalities need none);
	// the codebook stays dormant until a later Train finds image encodings.
	r, err := NewRepository("empty", RepositoryOptions{Vocab: cluster.VocabParams{Words: 8, Tree: cluster.TreeParams{Branch: 2, Height: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Train(); err != nil {
		t.Errorf("empty train: %v", err)
	}
	if r.VocabularySize() != 0 {
		t.Errorf("vocabulary = %d without any image data", r.VocabularySize())
	}
	// A text-only repository trains fine when empty (no codebook needed).
	rt, err := NewRepository("textonly", RepositoryOptions{Modalities: []Modality{ModalityText}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Train(); err != nil {
		t.Errorf("text-only train: %v", err)
	}
}

func TestRetrainBuildsCodebookOnceImagesArrive(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("retrain", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	// Train with text only.
	up, err := c.PrepareUpdate(&Object{ID: "t1", Text: "text only start"}, testDataKey(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if r.VocabularySize() != 0 {
		t.Fatalf("unexpected vocabulary %d", r.VocabularySize())
	}
	// Images arrive; a second Train builds the codebook (the paper allows
	// invoking Train repeatedly with different parameters).
	fillRepo(t, c, r, 3, 2)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if r.VocabularySize() == 0 {
		t.Error("retrain did not build a codebook")
	}
	q, err := c.PrepareQuery(&Object{ID: "q", Image: classImage(0, 44)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("image search found nothing after retrain")
	}
}

func TestSearchSingleModalityQueries(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("repo6", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 4, 3)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	// Text-only query.
	qt, err := c.PrepareQuery(&Object{ID: "q", Text: "mountain snow hiking"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(qt)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("text-only query found nothing")
	}
	// Image-only query.
	qi, err := c.PrepareQuery(&Object{ID: "q2", Image: classImage(0, 123)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits, err = r.Search(qi)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("image-only query found nothing")
	}
}

func TestLeakageProfile(t *testing.T) {
	c := testClient(t)
	r, err := NewRepository("repo7", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	obj := &Object{ID: "o1", Owner: "u", Text: "sunset sunset sunset beach"}
	up, err := c.PrepareUpdate(obj, testDataKey(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update(up); err != nil {
		t.Fatal(err)
	}
	// Table I: MIE leaks ID(w) and freq(w) at *update* time.
	sparse := dpe.NewSparse(crypto.DeriveKey(testRepoKey(1).Master, "rk2"))
	sunsetTok := sparse.Encode("sunset")
	if got := r.Leakage().UpdateTokenFreq(sunsetTok); got != 3 {
		t.Errorf("update leaked freq %d for 'sunset' token, want 3", got)
	}
	if r.Leakage().DistinctUpdateTokens() == 0 {
		t.Error("no update tokens recorded")
	}
	// Search leaks ID(w) and ID(d).
	q, err := c.PrepareQuery(&Object{ID: "q", Text: "sunset"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Search(q); err != nil {
		t.Fatal(err)
	}
	if got := r.Leakage().SearchTokenCount(sunsetTok); got != 1 {
		t.Errorf("search token count = %d, want 1", got)
	}
	if got := r.Leakage().AccessCount("o1"); got != 1 {
		t.Errorf("access count = %d, want 1", got)
	}
	u, rm, s, tr := r.Leakage().Ops()
	if u != 1 || rm != 0 || s != 1 || tr != 0 {
		t.Errorf("ops = (%d,%d,%d,%d)", u, rm, s, tr)
	}
}

func TestConcurrentMultiUserUpdates(t *testing.T) {
	// The Figure 4 scenario: multiple writers make independent progress on
	// one repository with no client-side shared state.
	c := testClient(t)
	r, err := NewRepository("repo8", smallRepoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fillRepo(t, c, r, 3, 2)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for u := 0; u < 4; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				obj := &Object{
					ID:    fmt.Sprintf("user%d-obj%d", u, i),
					Owner: fmt.Sprintf("user%d", u),
					Text:  fmt.Sprintf("document number %d from writer %d about topic%d", i, u, i%3),
				}
				up, err := c.PrepareUpdate(obj, testDataKey(6))
				if err != nil {
					errs <- err
					return
				}
				if err := r.Update(up); err != nil {
					errs <- err
					return
				}
				q, err := c.PrepareQuery(&Object{ID: "q", Text: "document topic1"}, 3)
				if err != nil {
					errs <- err
					return
				}
				if _, err := r.Search(q); err != nil {
					errs <- err
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r.Size() != 46 {
		t.Errorf("Size = %d, want 46", r.Size())
	}
}

func TestServiceLifecycle(t *testing.T) {
	s := openMem(t)
	if _, err := s.CreateRepository("r1", RepositoryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRepository("r1", RepositoryOptions{}); !errors.Is(err, ErrRepoExists) {
		t.Errorf("duplicate create: err = %v", err)
	}
	if _, err := s.Repository("r1"); err != nil {
		t.Errorf("lookup: %v", err)
	}
	if _, err := s.Repository("nope"); !errors.Is(err, ErrRepoNotFound) {
		t.Errorf("missing lookup: err = %v", err)
	}
	if got := s.Repositories(); len(got) != 1 || got[0] != "r1" {
		t.Errorf("Repositories = %v", got)
	}
	if err := s.DropRepository("r1"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropRepository("r1"); !errors.Is(err, ErrRepoNotFound) {
		t.Errorf("double drop: err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchValidation(t *testing.T) {
	r, err := NewRepository("repo9", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Search(&Query{K: 0}); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestRepositoryValidation(t *testing.T) {
	if _, err := NewRepository("", RepositoryOptions{}); err == nil {
		t.Error("expected error for empty id")
	}
	if _, err := NewRepository("x", RepositoryOptions{}); err != nil {
		t.Errorf("valid repo: %v", err)
	}
}

func TestRepositoryWithChampionSpill(t *testing.T) {
	// Exercise the §VI scalability path end-to-end: champion-bounded
	// indexes with disk spill, search correctness, and background merge.
	c := testClient(t)
	opts := smallRepoOptions("")
	opts.Index = index.Options{ChampionSize: 3, SpillDir: t.TempDir()}
	r, err := NewRepository("spilled", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := r.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	// Many docs share a hot keyword with increasing frequency, plus decoys
	// without it (so the hot keyword's idf stays positive).
	for i := 0; i < 12; i++ {
		textBody := "hotword"
		for j := 0; j < i; j++ {
			textBody += " hotword"
		}
		obj := &Object{ID: fmt.Sprintf("hot-%02d", i), Owner: "u", Text: textBody + " filler" + fmt.Sprint(i)}
		up, err := c.PrepareUpdate(obj, testDataKey(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		obj := &Object{ID: fmt.Sprintf("cold-%d", i), Owner: "u", Text: "unrelated quiet content " + fmt.Sprint(i)}
		up, err := c.PrepareUpdate(obj, testDataKey(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	q, err := c.PrepareQuery(&Object{ID: "q", Text: "hotword"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("got %d hits", len(hits))
	}
	// Champions must be the highest-frequency docs.
	if hits[0].ObjectID != "hot-11" || hits[1].ObjectID != "hot-10" {
		t.Errorf("champion order wrong: %+v", hits)
	}
	// Remove a spilled doc and merge: no stale postings resurface.
	r.Remove("hot-00")
	if err := r.CompactNow(); err != nil {
		t.Fatal(err)
	}
	q2, err := c.PrepareQuery(&Object{ID: "q2", Text: "hotword"}, 20)
	if err != nil {
		t.Fatal(err)
	}
	hits, err = r.Search(q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.ObjectID == "hot-00" {
			t.Error("removed doc resurfaced after merge")
		}
	}
}
