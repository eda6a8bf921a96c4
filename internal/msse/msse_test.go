package msse

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mie/internal/cluster"
	"mie/internal/crypto"
	"mie/internal/device"
	"mie/internal/imaging"
)

func testMaster(b byte) crypto.Key {
	var k crypto.Key
	for i := range k {
		k[i] = b
	}
	return k
}

var (
	homKeysOnce sync.Once
	homKeysVal  Keys
	homKeysErr  error
)

// homKeys generates one (slow) Paillier pair for the whole test package.
func homKeys(t *testing.T) Keys {
	t.Helper()
	homKeysOnce.Do(func() { homKeysVal, homKeysErr = NewHomKeys(testMaster(9), 512) })
	if homKeysErr != nil {
		t.Fatal(homKeysErr)
	}
	return homKeysVal
}

// variants is the conformance table: every test below that is not about
// one scheme's own mechanism runs once per row.
var variants = []struct {
	name    string
	keys    func(*testing.T) Keys
	padding float64
}{
	{"msse", func(*testing.T) Keys { return NewKeys(testMaster(1)) }, 0},
	{"hom-msse", homKeys, 0.6},
}

func configFor(keys Keys, padding float64) ClientConfig {
	return ClientConfig{
		Keys:    keys,
		Pyramid: imaging.PyramidParams{Scales: []int{16}},
		Vocab:   cluster.VocabParams{Words: 20, Tree: cluster.TreeParams{Branch: 3, Height: 2, Seed: 1}, Seed: 1, MaxIter: 10},
		Padding: padding,
	}
}

// eachVariant runs f as one sub-test per scheme.
func eachVariant(t *testing.T, f func(t *testing.T, cfg ClientConfig)) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) { f(t, configFor(v.keys(t), v.padding)) })
	}
}

func plainConfig() ClientConfig { return configFor(NewKeys(testMaster(1)), 0) }

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

func testDoc(class, n int) *Doc {
	topics := []string{
		"beach sand ocean waves sunny holiday",
		"mountain snow hiking trail peaks climbing",
		"city skyline buildings night lights urban",
	}
	return &Doc{
		ID:    fmt.Sprintf("doc-c%d-%d", class, n),
		Owner: "owner1",
		Text:  topics[class%len(topics)],
		Image: classImage(class, int64(n)),
	}
}

func dataKey() crypto.Key { return testMaster(77) }

const repoID = "r1"

// setupUntrained stores perClass objects of each of the three classes.
func setupUntrained(t *testing.T, cfg ClientConfig, perClass int) (*Client, *Server) {
	t.Helper()
	s := NewServer()
	if err := s.CreateRepository(repoID, cfg.Keys.Public()); err != nil {
		t.Fatal(err)
	}
	c := NewClient(cfg)
	for cls := 0; cls < 3; cls++ {
		for i := 0; i < perClass; i++ {
			if err := c.Update(s, repoID, testDoc(cls, i), dataKey()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c, s
}

func setupTrained(t *testing.T, cfg ClientConfig, perClass int) (*Client, *Server) {
	t.Helper()
	c, s := setupUntrained(t, cfg, perClass)
	if err := c.Train(s, repoID); err != nil {
		t.Fatal(err)
	}
	return c, s
}

// fromClass counts the hits whose id says they belong to class cls.
func fromClass(hits []Hit, cls int) int {
	same := 0
	for _, h := range hits {
		var c, n int
		if _, err := fmt.Sscanf(h.Doc, "doc-c%d-%d", &c, &n); err == nil && c == cls {
			same++
		}
	}
	return same
}

func TestCreateRepositoryDuplicate(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		s := NewServer()
		if err := s.CreateRepository("a", cfg.Keys.Public()); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateRepository("a", cfg.Keys.Public()); !errors.Is(err, ErrRepoExists) {
			t.Errorf("err = %v, want ErrRepoExists", err)
		}
		if _, err := s.GetFeatures("missing"); !errors.Is(err, ErrRepoNotFound) {
			t.Errorf("err = %v, want ErrRepoNotFound", err)
		}
	})
}

func TestCreateRepositoryValidation(t *testing.T) {
	if err := NewServer().CreateRepository("a", PublicKeys{}); err == nil {
		t.Error("expected error for missing public keys")
	}
}

func TestUntrainedLinearSearch(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		c, s := setupUntrained(t, cfg, 4)
		hits, err := c.Search(s, repoID, testDoc(1, 99), 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			t.Fatal("untrained search found nothing")
		}
		if same := fromClass(hits, 1); same < 3 {
			t.Errorf("only %d/%d hits from query class: %+v", same, len(hits), hits)
		}
	})
}

func TestTrainedSearch(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		c, s := setupTrained(t, cfg, 5)
		if !c.IsTrained() {
			t.Fatal("client not trained")
		}
		hits, err := c.Search(s, repoID, testDoc(2, 50), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			t.Fatal("trained search found nothing")
		}
		if same := fromClass(hits, 2); same < 3 {
			t.Errorf("only %d/%d hits from query class: %+v", same, len(hits), hits)
		}
	})
}

func TestTrainedUpdateThenSearch(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		c, s := setupTrained(t, cfg, 3)
		novel := &Doc{ID: "late", Owner: "owner2", Text: "xylophone orchestra concert rare"}
		if err := c.Update(s, repoID, novel, dataKey()); err != nil {
			t.Fatal(err)
		}
		hits, err := c.Search(s, repoID, &Doc{ID: "q", Text: "xylophone concert"}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].Doc != "late" {
			t.Fatalf("post-training update not searchable: %+v", hits)
		}
		if hits[0].Owner != "owner2" {
			t.Errorf("owner = %q", hits[0].Owner)
		}
	})
}

func TestRepeatedUpdatesIncrementCounters(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		c, s := setupTrained(t, cfg, 3)
		// Add three docs sharing a keyword; all three must be retrievable,
		// which requires the counters to have advanced per update.
		for i := 0; i < 3; i++ {
			d := &Doc{ID: fmt.Sprintf("shared-%d", i), Owner: "o", Text: "quasar astronomy telescope"}
			if err := c.Update(s, repoID, d, dataKey()); err != nil {
				t.Fatal(err)
			}
		}
		hits, err := c.Search(s, repoID, &Doc{ID: "q", Text: "quasar telescope"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 3 {
			t.Errorf("got %d hits, want 3 (counter-derived positions must not collide): %+v", len(hits), hits)
		}
	})
}

func TestRemove(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		c, s := setupTrained(t, cfg, 3)
		victim := "doc-c0-1"
		if err := s.remove(repoID, victim); err != nil {
			t.Fatal(err)
		}
		hits, err := c.Search(s, repoID, testDoc(0, 88), 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			if h.Doc == victim {
				t.Error("removed doc surfaced")
			}
		}
		r, err := s.repo(repoID)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(r.objects); n != 8 {
			t.Errorf("%d objects stored, want 8", n)
		}
	})
}

func TestUpdateReplacesDoc(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		c, s := setupTrained(t, cfg, 3)
		replacement := &Doc{ID: "doc-c0-0", Owner: "owner1", Text: "volcano eruption lava"}
		if err := c.Update(s, repoID, replacement, dataKey()); err != nil {
			t.Fatal(err)
		}
		hits, err := c.Search(s, repoID, &Doc{ID: "q", Text: "volcano"}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].Doc != "doc-c0-0" {
			t.Errorf("replacement not searchable: %+v", hits)
		}
		// Old content must be gone.
		hits, err = c.Search(s, repoID, &Doc{ID: "q2", Text: "beach ocean waves sunny"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			if h.Doc == "doc-c0-0" {
				t.Error("stale postings for replaced doc")
			}
		}
	})
}

// The counter lock is MSSE's own: Hom-MSSE's server advances the counters
// itself and never makes a writer wait for another's update.
func TestCounterLockSerializesWriters(t *testing.T) {
	c, s := setupTrained(t, plainConfig(), 2)
	// Hold the lock manually, then check a concurrent trained update blocks
	// until release.
	if _, err := s.Counters(repoID, CounterReq{Advance: true, Refs: map[string][]CounterRef{ModText: nil}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- c.Update(s, repoID, &Doc{ID: "blocked", Owner: "o", Text: "waiting writer"}, dataKey())
	}()
	select {
	case err := <-done:
		t.Fatalf("update completed while counters were locked: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.Release(repoID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update never completed after unlock")
	}
}

func TestTrainedUpdateWithoutLockFails(t *testing.T) {
	_, s := setupTrained(t, plainConfig(), 2)
	err := s.TrainedUpdate(repoID, Object{ID: "x", Owner: "o"}, nil)
	if !errors.Is(err, ErrNotLocked) {
		t.Errorf("err = %v, want ErrNotLocked", err)
	}
	if err := s.Release(repoID); !errors.Is(err, ErrNotLocked) {
		t.Errorf("unlock err = %v, want ErrNotLocked", err)
	}
}

// Concurrent writers all land under both schemes: MSSE's take turns at the
// counter lock, Hom-MSSE's need none because the server increments the
// counters itself.
func TestConcurrentTrainedUpdates(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		c, s := setupTrained(t, cfg, 2)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				d := &Doc{ID: fmt.Sprintf("conc-%d", w), Owner: "o", Text: fmt.Sprintf("parallel writer %d payload", w)}
				if err := c.Update(s, repoID, d, dataKey()); err != nil {
					errs <- err
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		hits, err := c.Search(s, repoID, &Doc{ID: "q", Text: "parallel writer payload"}, 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 8 {
			t.Errorf("got %d concurrent docs back, want 8", len(hits))
		}
	})
}

func TestCodebookSharing(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		c1, s := setupTrained(t, cfg, 3)
		// Second user receives the codebook out of band and can search.
		c2 := NewClient(cfg)
		c2.SetCodebook(c1.Codebook())
		hits, err := c2.Search(s, repoID, testDoc(0, 42), 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			t.Error("second user with shared codebook found nothing")
		}
	})
}

func TestSearchValidation(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		c, s := setupTrained(t, cfg, 2)
		if _, err := c.Search(s, repoID, testDoc(0, 1), 0); err == nil {
			t.Error("expected error for k=0")
		}
	})
}

func TestMeterAttribution(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		meter := device.NewMeter(device.Desktop)
		cfg.Meter = meter
		c, s := setupTrained(t, cfg, 2)
		if err := c.Update(s, repoID, testDoc(1, 9), dataKey()); err != nil {
			t.Fatal(err)
		}
		if meter.Time(device.Train) == 0 {
			t.Error("training cost not attributed to Train")
		}
		if meter.Time(device.Encrypt) == 0 {
			t.Error("no Encrypt cost recorded")
		}
		if meter.Time(device.Index) == 0 {
			t.Error("no Index cost recorded")
		}
		if meter.RoundTrips(device.Network) == 0 {
			t.Error("no network transfers recorded")
		}
	})
}

// Every operation that reaches the server pays for what it sends and for
// what it is sent, whichever scheme and whichever side of training.
func TestMeterChargesEveryRoundTrip(t *testing.T) {
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		meter := device.NewMeter(device.Desktop)
		cfg.Meter = meter
		c, s := setupUntrained(t, cfg, 2)
		// moved runs op and returns the bytes it put on the link.
		moved := func(op func()) (up, down int64) {
			up0, down0 := meter.Bytes(device.Network)
			op()
			up1, down1 := meter.Bytes(device.Network)
			return up1 - up0, down1 - down0
		}
		update := func(label string, d *Doc) {
			up, down := moved(func() {
				if err := c.Update(s, repoID, d, dataKey()); err != nil {
					t.Fatal(err)
				}
			})
			r, err := s.repo(repoID)
			if err != nil {
				t.Fatal(err)
			}
			if stored := r.objects[d.ID].size(); up < stored {
				t.Errorf("%s update: %d bytes up, stored object alone is %d", label, up, stored)
			}
			if c.IsTrained() && down == 0 {
				t.Errorf("%s update: the counters it fetched were not charged", label)
			}
		}
		search := func(label string) {
			var hits []Hit
			up, down := moved(func() {
				var err error
				if hits, err = c.Search(s, repoID, testDoc(1, 70), 4); err != nil {
					t.Fatal(err)
				}
			})
			var returned int64
			for _, h := range hits {
				returned += int64(len(h.Ciphertext))
			}
			if returned == 0 {
				t.Fatalf("%s search returned no ciphertext", label)
			}
			if up <= 0 {
				t.Errorf("%s search: %d bytes up", label, up)
			}
			if down < returned {
				t.Errorf("%s search: %d bytes down, hits alone carry %d", label, down, returned)
			}
		}
		update("untrained", testDoc(0, 7))
		search("untrained")
		if err := c.Train(s, repoID); err != nil {
			t.Fatal(err)
		}
		update("trained", testDoc(2, 7))
		search("trained")
	})
}

func TestIndexPaddingHidesDocLengthsInvisibly(t *testing.T) {
	// A padded client must produce identical search results to an unpadded
	// one, while the server carries extra dummies — postings that blur
	// per-document lengths under MSSE, counters under Hom-MSSE.
	eachVariant(t, func(t *testing.T, cfg ClientConfig) {
		run := func(padding float64) (*Client, *Server, int) {
			cfg.Padding = padding
			c, s := setupTrained(t, cfg, 2)
			// Post-training update exercises the padded trained path.
			if err := c.Update(s, repoID, &Doc{ID: "late", Owner: "o", Text: "falcon heavy rocket launch"}, dataKey()); err != nil {
				t.Fatal(err)
			}
			r, err := s.repo(repoID)
			if err != nil {
				t.Fatal(err)
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			entries := 0
			for _, im := range r.idx {
				entries += len(im)
			}
			for _, byID := range r.ctrs {
				entries += len(byID)
			}
			return c, s, entries
		}
		cPlain, sPlain, plainEntries := run(0)
		cPad, sPad, padEntries := run(1.6)
		if padEntries <= plainEntries {
			t.Errorf("padding added nothing at the server: %d vs %d", padEntries, plainEntries)
		}
		// Same query, same results.
		hp, err := cPlain.Search(sPlain, repoID, &Doc{ID: "q", Text: "falcon rocket"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		hq, err := cPad.Search(sPad, repoID, &Doc{ID: "q", Text: "falcon rocket"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(hp) != len(hq) {
			t.Fatalf("result counts differ: %d vs %d", len(hp), len(hq))
		}
		for i := range hp {
			if hp[i].Doc != hq[i].Doc {
				t.Errorf("rank %d differs: %s vs %s", i, hp[i].Doc, hq[i].Doc)
			}
		}
		for _, h := range hq {
			if len(h.Doc) > 0 && h.Doc[0] == 0 {
				t.Error("dummy doc surfaced in results")
			}
		}
	})
}

func TestServerNeverSeesPlaintextFrequencies(t *testing.T) {
	// Structural check of the Table I claim, Hom-MSSE's own: every stored
	// frequency must be a Paillier ciphertext (indistinguishable across
	// equal plaintexts), not a deterministic value.
	c, s := setupTrained(t, configFor(homKeys(t), 0.6), 2)
	for _, id := range []string{"fa", "fb"} {
		if err := c.Update(s, repoID, &Doc{ID: id, Owner: "o", Text: "zebra zebra zebra"}, dataKey()); err != nil {
			t.Fatal(err)
		}
	}
	r, err := s.repo(repoID)
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var freqs [][]byte
	for _, e := range r.idx[ModText] {
		if e.doc == "fa" || e.doc == "fb" {
			freqs = append(freqs, e.encFreq)
		}
	}
	if len(freqs) != 2 {
		t.Fatalf("expected 2 postings for fa/fb, got %d", len(freqs))
	}
	if string(freqs[0]) == string(freqs[1]) {
		t.Error("equal frequencies encrypted to identical ciphertexts (frequency pattern leaked)")
	}
}

// remove deletes an object: the server scans index values for the plaintext
// doc id (the design trade discussed in the appendix — doc ids in values
// make removal server-side and storage-free, revealing document lengths).
func (s *Server) remove(repoID, docID string) error {
	r, err := s.repo(repoID)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remove(docID)
	return nil
}
