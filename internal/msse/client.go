package msse

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"mie/internal/cluster"
	"mie/internal/crypto"
	"mie/internal/device"
	"mie/internal/imaging"
	"mie/internal/index"
	"mie/internal/text"
)

// Client is the trusted client. Unlike MIE's stateless client it holds the
// trained codebook (shared between users out of band) and must fetch counter
// state from the server around every trained update — the O(n) client
// storage row of Table I.
type Client struct {
	keys    Keys
	pyr     imaging.PyramidParams
	vocab   cluster.VocabParams
	padding float64
	meter   *device.Meter

	mu       sync.Mutex
	codebook *cluster.Vocabulary[[]float64]
}

// ClientConfig configures a client.
type ClientConfig struct {
	Keys    Keys
	Pyramid imaging.PyramidParams
	// Vocab shapes visual-word training: flat k-means to Vocab.Words words
	// (paper: 1000) plus a lookup tree over the words.
	Vocab cluster.VocabParams
	// Padding, when positive, adds ceil(Padding · |terms|) dummies per
	// trained update — the appendix's index-padding mitigation (after Cash
	// et al.; it cites 1.6x as sufficient against keyword-retrieval
	// attacks). MSSE pads the index with dummy postings, blurring the
	// document-length leak of plaintext doc ids in index values; Hom-MSSE
	// pads its counter increments with encrypted zeros, so the server
	// cannot tell which counters really advanced. No real query ever
	// touches a dummy.
	Padding float64
	Meter   *device.Meter
}

// NewClient builds a client component.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Vocab.Words == 0 {
		cfg.Vocab.Words = 1000
	}
	if cfg.Vocab.Tree.Branch == 0 {
		cfg.Vocab.Tree.Branch = 10
	}
	if cfg.Vocab.Tree.Height == 0 {
		cfg.Vocab.Tree.Height = 3
	}
	return &Client{keys: cfg.Keys, pyr: cfg.Pyramid, vocab: cfg.Vocab, padding: cfg.Padding, meter: cfg.Meter}
}

// SetCodebook installs a codebook trained by another user (the
// ShareCodebook step of USER.Train).
func (c *Client) SetCodebook(cb *cluster.Vocabulary[[]float64]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.codebook = cb
}

// Codebook returns the trained codebook (nil before training).
func (c *Client) Codebook() *cluster.Vocabulary[[]float64] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.codebook
}

// IsTrained reports whether the client holds a codebook.
func (c *Client) IsTrained() bool { return c.Codebook() != nil }

func (c *Client) timeCPU(cat device.Category, fn func()) {
	if c.meter == nil {
		fn()
		return
	}
	c.meter.TimeCPU(cat, fn)
}

// padCount is how many dummies pad realTerms terms.
func (c *Client) padCount(realTerms int) int {
	if c.padding <= 0 {
		return 0
	}
	return int(math.Ceil(c.padding * float64(realTerms)))
}

// link is a client's line to one repository. Every call the client or its
// variant makes to the server goes through it, and each charges the meter
// one round trip of exactly the bytes that crossed — the request's up, the
// response's down — so no path can reach the server for free.
type link struct {
	c    *Client
	s    *Server
	repo string
}

func (l link) charge(up, down int64) {
	if l.c.meter != nil {
		l.c.meter.AddTransfer(device.Network, int64(len(l.repo))+up, down)
	}
}

func (l link) counters(req CounterReq) (CounterResp, error) {
	resp, err := l.s.Counters(l.repo, req)
	if err != nil {
		return nil, err
	}
	l.charge(req.size(), resp.size())
	return resp, nil
}

// abandon releases the counters after cause kept the client from building
// its update, and returns the error to report.
func (l link) abandon(cause error) error {
	if err := l.s.Release(l.repo); err != nil {
		return fmt.Errorf("msse: %v (unlock failed: %w)", cause, err)
	}
	l.charge(0, 0)
	return cause
}

func (l link) untrainedUpdate(obj Object) error {
	if err := l.s.UntrainedUpdate(l.repo, obj); err != nil {
		return err
	}
	l.charge(obj.size(), 0)
	return nil
}

func (l link) trainedUpdate(obj Object, ups []ModalityUpdate) error {
	if err := l.s.TrainedUpdate(l.repo, obj, ups); err != nil {
		return err
	}
	l.charge(obj.size()+updatesSize(ups), 0)
	return nil
}

func (l link) storeIndex(ups []ModalityUpdate) error {
	if err := l.s.StoreIndex(l.repo, ups); err != nil {
		return err
	}
	l.charge(updatesSize(ups), 0)
	return nil
}

func (l link) features() (map[string][]byte, error) {
	encFvs, err := l.s.GetFeatures(l.repo)
	if err != nil {
		return nil, err
	}
	var down int64
	for _, b := range encFvs {
		down += int64(len(b))
	}
	l.charge(0, down)
	return encFvs, nil
}

func (l link) objects() (map[string]Hit, error) {
	objs, err := l.s.GetObjects(l.repo)
	if err != nil {
		return nil, err
	}
	var down int64
	for _, o := range objs {
		down += int64(len(o.Ciphertext))
	}
	l.charge(0, down)
	return objs, nil
}

func (l link) search(qs []ModalityQuery, k int) (SearchResp, error) {
	start := time.Now()
	resp, err := l.s.Search(l.repo, qs, k)
	if err != nil {
		return SearchResp{}, err
	}
	if l.c.meter != nil {
		// Scoring happens server-side but inside the synchronous query:
		// Figure 5's Network bar includes the server's processing time.
		l.c.meter.AddServerTime(device.Network, time.Since(start))
	}
	l.charge(queriesSize(qs), resp.size())
	return resp, nil
}

// Doc is the client-side plaintext object (mirror of core.Object, kept
// separate so the baselines do not depend on the MIE package).
type Doc struct {
	ID    string
	Owner string
	Text  string
	Image *imaging.Image
}

// featureBlob is the plaintext content of a sealed feature-vector upload:
// everything the client needs later to train and (re)index.
type featureBlob struct {
	Terms []text.Term
	Descs [][]float64
}

// extract runs plaintext feature extraction (same pipeline as MIE).
func (c *Client) extract(obj *Doc) featureBlob {
	var fb featureBlob
	c.timeCPU(device.Index, func() {
		if obj.Text != "" {
			fb.Terms = text.Extract(obj.Text)
		}
		if obj.Image != nil {
			fb.Descs = imaging.Extract(obj.Image, c.pyr)
		}
	})
	return fb
}

// encryptBlob gob-encodes and IND-CPA encrypts v under rk1.
func (c *Client) encryptBlob(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("msse: encode blob: %w", err)
	}
	return crypto.NewCipher(c.keys.rk1).Encrypt(buf.Bytes())
}

func (c *Client) decryptBlob(ct []byte, v interface{}) error {
	if len(ct) == 0 {
		return nil // absent dictionary decodes to the zero value
	}
	pt, err := crypto.NewCipher(c.keys.rk1).Decrypt(ct)
	if err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(pt)).Decode(v)
}

// seal encrypts doc under the data key and its features under rk1.
func (c *Client) seal(doc *Doc, fb featureBlob, dataKey crypto.Key) (Object, error) {
	obj := Object{ID: doc.ID, Owner: doc.Owner}
	var err error
	c.timeCPU(device.Encrypt, func() {
		var buf bytes.Buffer
		if err = gob.NewEncoder(&buf).Encode(doc); err != nil {
			err = fmt.Errorf("msse: marshal doc: %w", err)
			return
		}
		if obj.Ciphertext, err = crypto.NewCipher(dataKey).Encrypt(buf.Bytes()); err != nil {
			return
		}
		obj.EncFvs, err = c.encryptBlob(fb)
	})
	return obj, err
}

// position computes l = PRF(k1, ctr) in hex.
func position(k1 crypto.Key, ctr uint64) string {
	return hex.EncodeToString(crypto.PRFUint64(k1, ctr))
}

// histograms computes the per-modality term->freq maps of an object; the
// image modality requires the codebook.
func (c *Client) histograms(fb featureBlob) hists {
	out := make(hists, 2)
	if len(fb.Terms) > 0 {
		h := make(map[string]uint64, len(fb.Terms))
		for _, t := range fb.Terms {
			h[t.Word] = t.Freq
		}
		out[ModText] = h
	}
	cb := c.Codebook()
	if len(fb.Descs) > 0 && cb != nil {
		h := make(map[string]uint64)
		for _, d := range fb.Descs {
			h["vw:"+strconv.Itoa(cb.Quantize(d))]++
		}
		out[ModImage] = h
	}
	return out
}

// modalities lists the modalities hs has, text first.
func modalities(hs hists) []string {
	var ms []string
	for _, m := range []string{ModText, ModImage} {
		if _, ok := hs[m]; ok {
			ms = append(ms, m)
		}
	}
	return ms
}

// postings seals docID's frequencies in one modality and places each at the
// position the term's counter value at[term] names.
func (c *Client) postings(docID string, hist, at map[string]uint64) ([]Posting, error) {
	out := make([]Posting, 0, len(hist))
	for term, freq := range hist {
		k1, sealed, err := c.keys.v.posting(term, freq)
		if err != nil {
			return nil, err
		}
		out = append(out, Posting{L: position(k1, at[term]), Doc: docID, EncFreq: sealed})
	}
	return out, nil
}

// Update adds or replaces an object. Before training this only ships the
// encrypted object and features; after training the client advances the
// counters of the object's terms and uploads a posting at the position each
// one names (Figures 7 and 8).
func (c *Client) Update(s *Server, repoID string, doc *Doc, dataKey crypto.Key) error {
	l := link{c: c, s: s, repo: repoID}
	fb := c.extract(doc)
	obj, err := c.seal(doc, fb, dataKey)
	if err != nil {
		return err
	}
	if !c.IsTrained() {
		return l.untrainedUpdate(obj)
	}
	var hs hists
	c.timeCPU(device.Index, func() { hs = c.histograms(fb) })
	at, ups, err := c.keys.v.advance(c, l, doc.ID, hs)
	if err != nil {
		return err
	}
	c.timeCPU(device.Encrypt, func() {
		for i := range ups {
			var ps []Posting
			if ps, err = c.postings(doc.ID, hs[ups[i].Modality], at[ups[i].Modality]); err != nil {
				return
			}
			ups[i].Postings = append(ups[i].Postings, ps...)
		}
	})
	if err != nil {
		return l.abandon(err)
	}
	return l.trainedUpdate(obj, ups)
}

// Train downloads every sealed feature blob, decrypts, runs Euclidean
// hierarchical k-means *on the client* (the Train cost bar of Figures 2/3),
// indexes every stored object and uploads the index.
func (c *Client) Train(s *Server, repoID string) error {
	l := link{c: c, s: s, repo: repoID}
	encFvs, err := l.features()
	if err != nil {
		return err
	}
	docs := make(map[string]featureBlob, len(encFvs))
	c.timeCPU(device.Encrypt, func() {
		for id, ct := range encFvs {
			var fb featureBlob
			if err = c.decryptBlob(ct, &fb); err != nil {
				err = fmt.Errorf("msse: decrypt features of %s: %w", id, err)
				return
			}
			docs[id] = fb
		}
	})
	if err != nil {
		return err
	}

	c.timeCPU(device.Train, func() {
		// Sorted ids keep the k-means sample order — and thus the trained
		// codebook — deterministic across runs.
		ids := make([]string, 0, len(docs))
		for id := range docs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var sample [][]float64
		for _, id := range ids {
			sample = append(sample, docs[id].Descs...)
		}
		if len(sample) == 0 {
			return // text-only repository: no codebook needed
		}
		euclid := func(ps [][]float64, k int, seed int64) ([][]float64, []int, error) {
			res, err := cluster.KMeans(ps, k, cluster.Options{Seed: seed, MaxIter: c.vocab.MaxIter})
			if err != nil {
				return nil, nil, err
			}
			return res.Centroids, res.Assignments, nil
		}
		var vocab *cluster.Vocabulary[[]float64]
		if vocab, err = cluster.TrainVocabulary(sample, c.vocab, euclid, vecEuclid); err != nil {
			err = fmt.Errorf("msse: train codebook: %w", err)
			return
		}
		c.SetCodebook(vocab)
	})
	if err != nil {
		return err
	}

	// Index all existing objects client-side (IndexData of Figure 7).
	ups, err := c.keys.v.reindex(c, l, docs)
	if err != nil {
		return err
	}
	return l.storeIndex(ups)
}

// Search runs the query flow: trained repositories use the PRF trapdoors
// and the scheme's scoring; untrained ones fall back to downloading
// everything and scanning locally (USER.Search's untrained branch).
func (c *Client) Search(s *Server, repoID string, query *Doc, k int) ([]Hit, error) {
	if k <= 0 {
		return nil, errors.New("msse: k must be positive")
	}
	l := link{c: c, s: s, repo: repoID}
	fb := c.extract(query)
	if !c.IsTrained() {
		return c.linearSearch(l, fb, k)
	}
	var hs hists
	c.timeCPU(device.Index, func() { hs = c.histograms(fb) })
	ctrs, err := c.keys.v.current(c, l, hs)
	if err != nil {
		return nil, err
	}
	var qs []ModalityQuery
	c.timeCPU(device.Encrypt, func() {
		for m, hist := range hs {
			mq := ModalityQuery{Modality: m}
			for term, qf := range hist {
				cnt := ctrs[m][term]
				if cnt == 0 {
					continue // never indexed
				}
				k1, k2 := c.keys.v.trapdoor(term)
				st := SearchTerm{K2: k2, QueryFreq: qf, Positions: make([]string, cnt)}
				for ctr := range st.Positions {
					st.Positions[ctr] = position(k1, uint64(ctr))
				}
				mq.Terms = append(mq.Terms, st)
			}
			qs = append(qs, mq)
		}
	})
	resp, err := l.search(qs, k)
	if err != nil {
		return nil, err
	}
	return c.keys.v.rank(c, resp, k)
}

// linearSearch downloads features and objects and ranks locally.
func (c *Client) linearSearch(l link, q featureBlob, k int) ([]Hit, error) {
	encFvs, err := l.features()
	if err != nil {
		return nil, err
	}
	objs, err := l.objects()
	if err != nil {
		return nil, err
	}
	qtf := make(map[string]uint64, len(q.Terms))
	for _, t := range q.Terms {
		qtf[t.Word] = t.Freq
	}
	var scored []index.Result
	c.timeCPU(device.Index, func() {
		for id, ct := range encFvs {
			var fb featureBlob
			if err = c.decryptBlob(ct, &fb); err != nil {
				return
			}
			var s float64
			for _, t := range fb.Terms {
				s += float64(qtf[t.Word]) * float64(t.Freq)
			}
			if len(fb.Descs) > 0 {
				for _, qd := range q.Descs {
					best := 1.0
					for _, od := range fb.Descs {
						best = math.Min(best, vecEuclid(qd, od))
					}
					s += 1 - best
				}
			}
			if s > 0 {
				scored = append(scored, index.Result{Doc: index.DocID(id), Score: s})
			}
		}
		index.SortResults(scored)
	})
	if err != nil {
		return nil, err
	}
	if len(scored) > k {
		scored = scored[:k]
	}
	hits := make([]Hit, 0, len(scored))
	for _, r := range scored {
		h := objs[string(r.Doc)]
		h.Doc, h.Score = string(r.Doc), r.Score
		hits = append(hits, h)
	}
	return hits, nil
}

func vecEuclid(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
