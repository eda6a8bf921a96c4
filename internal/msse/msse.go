// Package msse implements the two baselines of the paper's evaluation
// (Appendix A): MSSE, a multimodal, ranked extension of the dynamic SSE
// scheme of Cash et al. (NDSS'14) without Random Oracles, and Hom-MSSE, the
// same scheme with its counters and frequencies under Paillier.
//
// Contrast with MIE: here the *client* performs training (Euclidean k-means
// over plaintext descriptors) and indexing. Index positions are PRF values
// l = PRF(k1, ctr) of per-keyword counters; index values are the plaintext
// document id concatenated with the sealed keyword frequency.
//
// One Server and one Client run both schemes. The steps where they differ
// sit behind the variant interface below and nowhere else:
//
//   - MSSE (plain.go): the per-keyword counters are an AES-sealed dictionary
//     stored at the server, fetched, incremented and re-uploaded around every
//     update under a server-side write lock — the multi-user coordination
//     cost Figure 4 calls out. At search time the client hands the server
//     the positions plus k2, so the server learns frequency patterns then
//     (Table I: MSSE search leakage = ID(w), ID(d), freq(w)).
//   - Hom-MSSE (hom.go, Figure 8): counters are Paillier ciphertexts the
//     *server* increments homomorphically, so writers need no lock, and
//     frequencies are Paillier ciphertexts the server scores without ever
//     opening them (search leakage shrinks to ID(w), ID(d)). The price is
//     heavy client cryptography (the tallest bars of Figures 2/3/6) and
//     client-side decrypt, sort and rank fusion of every candidate.
//
// Which scheme runs is decided by the keys the caller constructs (NewKeys or
// NewHomKeys): the client is configured with them, the repository is created
// with their public half.
package msse

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"mie/internal/crypto"
	"mie/internal/paillier"
)

// Modality labels for the two indexed media types.
const (
	ModText  = "text"
	ModImage = "image"
)

// hists is an object's term frequencies, modality -> term -> freq; counters
// has the same shape and holds the counter value of each term.
type (
	hists    = map[string]map[string]uint64
	counters = map[string]map[string]uint64
)

// variant is everything MSSE and Hom-MSSE do differently. The methods
// marked (server) run at the server, under the repository mutex unless
// noted, and see only what the server is given; the others run at the
// client, which holds the secrets, and reach the server through the link
// they are handed.
type variant interface {
	// Counters: how a term's counter is read and advanced.

	// advance reads the counter of every term in hs and leaves it one
	// higher. It returns the values read and one update per modality of hs
	// carrying whatever of the variant's own must ride on the object's
	// upload (padding, resealed counters).
	advance(c *Client, l link, docID string, hs hists) (counters, []ModalityUpdate, error)
	// current reads the counters of hs's terms for a search.
	current(c *Client, l link, hs hists) (counters, error)
	// reindex indexes every stored object after training and returns the
	// index to store, both modalities.
	reindex(c *Client, l link, docs map[string]featureBlob) ([]ModalityUpdate, error)
	// serveCounters answers advance and current (server; takes r.mu itself,
	// because it may have to wait for another writer first).
	serveCounters(r *repo, req CounterReq) (CounterResp, error)
	// release ends the hold an advancing CounterReq gave its caller; an
	// update does it on arrival, a client that cannot build its update asks
	// for it (server).
	release(r *repo) error
	// storeCounters keeps what ups carry for the counters (server).
	storeCounters(r *repo, ups []ModalityUpdate)

	// Frequencies: how one is sealed, and who may open it.

	// posting returns the key that places term in the index and freq
	// sealed for the value stored there.
	posting(term string, freq uint64) (pos crypto.Key, sealed []byte, err error)
	// trapdoor returns term's position key and the key the server is handed
	// to open its frequencies, nil when it never may.
	trapdoor(term string) (pos crypto.Key, freqKey []byte)

	// Scoring: who ranks a query.

	// score looks the trapdoors up and returns what the server can make of
	// them (server).
	score(r *repo, qs []ModalityQuery, k int) (SearchResp, error)
	// rank turns the server's answer into the top k hits.
	rank(c *Client, resp SearchResp, k int) ([]Hit, error)
}

// Keys is a client's key material: rk1 seals feature vectors (IND-CPA), the
// rest belongs to the scheme the keys were made for.
type Keys struct {
	rk1 crypto.Key
	v   variant // holds the secrets
	pub variant // what the server may know
}

// NewKeys derives MSSE keys from one master repository key.
func NewKeys(master crypto.Key) Keys {
	return Keys{
		rk1: crypto.DeriveKey(master, "msse-rk1"),
		v:   plain{rk2: crypto.DeriveKey(master, "msse-rk2")},
		pub: plain{},
	}
}

// NewHomKeys derives Hom-MSSE's symmetric keys from the master key and
// generates a fresh Paillier pair of the given modulus size (rk2R =
// {HomPub, HomPriv} in Figure 8).
func NewHomKeys(master crypto.Key, paillierBits int) (Keys, error) {
	priv, err := paillier.GenerateKey(nil, paillierBits)
	if err != nil {
		return Keys{}, err
	}
	return Keys{
		rk1: crypto.DeriveKey(master, "hommsse-rk1"),
		v:   hom{rkid: crypto.DeriveKey(master, "hommsse-rkid"), pub: &priv.PublicKey, priv: priv},
		pub: hom{pub: &priv.PublicKey},
	}, nil
}

// PublicKeys is what a repository's server is told at creation: nothing for
// MSSE, the Paillier public key for Hom-MSSE.
type PublicKeys struct{ v variant }

// Public returns the half of k the server may hold.
func (k Keys) Public() PublicKeys { return PublicKeys{v: k.pub} }

// Object is one stored object: the ciphertext and the sealed feature
// vectors the client needs back to train and (re)index.
type Object struct {
	ID         string
	Owner      string
	Ciphertext []byte
	EncFvs     []byte
}

func (o Object) size() int64 { return int64(len(o.Ciphertext) + len(o.EncFvs)) }

// Posting is one (position, value) pair uploaded by a client: l = PRF(k1,
// ctr) in hex, and d = IDp || sealed freq.
type Posting struct {
	L       string
	Doc     string
	EncFreq []byte
}

// ModalityUpdate carries one modality's postings and, from a client that
// keeps the counters itself, the resealed counter dictionary.
type ModalityUpdate struct {
	Modality string
	Postings []Posting
	ECtrs    []byte
}

func updatesSize(ups []ModalityUpdate) int64 {
	var n int64
	for _, mu := range ups {
		n += int64(len(mu.ECtrs))
		for _, p := range mu.Postings {
			n += int64(len(p.L) + len(p.Doc) + len(p.EncFreq))
		}
	}
	return n
}

// CounterRef names one counter and, in an advancing request to a server
// that advances counters itself, the sealed amount to add to it.
type CounterRef struct {
	ID     string
	EncInc []byte
}

// CounterReq asks for counters, per modality. Advance says the caller will
// index with what it gets, so no other writer may be handed the same values.
type CounterReq struct {
	Advance bool
	Refs    map[string][]CounterRef
}

func (q CounterReq) size() int64 {
	var n int64
	for m, refs := range q.Refs {
		n += int64(len(m))
		for _, ref := range refs {
			n += int64(len(ref.ID) + len(ref.EncInc))
		}
	}
	return n
}

// CounterResp is the sealed counters asked for, modality -> id -> value.
type CounterResp map[string]map[string][]byte

func (p CounterResp) size() int64 {
	var n int64
	for _, byID := range p {
		for _, ct := range byID {
			n += int64(len(ct))
		}
	}
	return n
}

// SearchTerm is the client-side trapdoor for one query term: all candidate
// index positions, the query-side frequency, and k2 where the server is to
// open the stored frequencies.
type SearchTerm struct {
	Positions []string
	K2        []byte
	QueryFreq uint64
}

// ModalityQuery is one modality's search trapdoors.
type ModalityQuery struct {
	Modality string
	Terms    []SearchTerm
}

func queriesSize(qs []ModalityQuery) int64 {
	var n int64
	for _, mq := range qs {
		for _, st := range mq.Terms {
			n += int64(len(st.K2) + 8)
			for _, p := range st.Positions {
				n += int64(len(p))
			}
		}
	}
	return n
}

// Hit is a ranked search result.
type Hit struct {
	Doc        string
	Owner      string
	Score      float64
	Ciphertext []byte
}

// DocScore is one candidate with its score still sealed.
type DocScore struct {
	Doc      string
	Owner    string
	EncScore []byte
	Cipher   []byte
}

// SearchResp is the server's answer to a query: the ranked top k where it
// could open the frequencies, otherwise every candidate per modality with
// its sealed score, for the client to open, sort and fuse.
type SearchResp struct {
	Hits   []Hit
	Scored map[string][]DocScore
}

func (p SearchResp) size() int64 {
	var n int64
	for _, h := range p.Hits {
		n += int64(len(h.Ciphertext))
	}
	for _, list := range p.Scored {
		for _, ds := range list {
			n += int64(len(ds.EncScore) + len(ds.Cipher))
		}
	}
	return n
}

// Server errors.
var (
	ErrRepoExists   = errors.New("msse: repository exists")
	ErrRepoNotFound = errors.New("msse: repository not found")
	ErrNotLocked    = errors.New("msse: counters not locked by caller")
)

// entry is one index value: the plaintext doc id plus the sealed frequency.
type entry struct {
	doc     string
	encFreq []byte
}

// repo is the server-side state of one repository.
type repo struct {
	mu      sync.Mutex
	v       variant
	objects map[string]Object
	idx     map[string]map[string]entry // modality -> position -> value
	// ctrs holds the sealed counters, modality -> id -> value; what an id
	// names and what seals the value are the variant's.
	ctrs map[string]map[string][]byte
	// lock (cap 1) is held by the one writer that was handed counters to
	// rewrite, from its fetch until its update; locked mirrors it under mu.
	lock   chan struct{}
	locked bool
}

// Server is the untrusted cloud component.
type Server struct {
	mu    sync.RWMutex
	repos map[string]*repo
}

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{repos: make(map[string]*repo)}
}

// CreateRepository initializes server-side state for the scheme pk belongs
// to.
func (s *Server) CreateRepository(id string, pk PublicKeys) error {
	if pk.v == nil {
		return errors.New("msse: repository needs its scheme's public keys (Keys.Public)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.repos[id]; ok {
		return fmt.Errorf("%w: %s", ErrRepoExists, id)
	}
	s.repos[id] = &repo{
		v:       pk.v,
		objects: make(map[string]Object),
		idx:     make(map[string]map[string]entry),
		ctrs:    make(map[string]map[string][]byte),
		lock:    make(chan struct{}, 1),
	}
	return nil
}

func (s *Server) repo(id string) (*repo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.repos[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrRepoNotFound, id)
	}
	return r, nil
}

// Counters returns the sealed counters req names (CLOUD.GetCtrs /
// CLOUD.GetAndIncCtrs). What an advancing request costs other writers is
// where the schemes part: MSSE makes them wait for the caller's update,
// Hom-MSSE has already moved the counters on when this returns.
func (s *Server) Counters(repoID string, req CounterReq) (CounterResp, error) {
	r, err := s.repo(repoID)
	if err != nil {
		return nil, err
	}
	return r.v.serveCounters(r, req)
}

// Release gives up the counters an advancing request was handed, without an
// update (error paths).
func (s *Server) Release(repoID string) error {
	r, err := s.repo(repoID)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v.release(r)
}

// UntrainedUpdate stores an object before training: just the ciphertext and
// the sealed feature vectors (CLOUD.UntrainedUpdate).
func (s *Server) UntrainedUpdate(repoID string, obj Object) error {
	r, err := s.repo(repoID)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.put(obj)
	return nil
}

// TrainedUpdate stores an object after training — ciphertext, sealed
// features, new index postings, the variant's counters — and ends the hold
// on the counters its caller's fetch took (CLOUD.TrainedUpdate).
func (s *Server) TrainedUpdate(repoID string, obj Object, ups []ModalityUpdate) error {
	r, err := s.repo(repoID)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.v.release(r); err != nil {
		return err
	}
	r.put(obj)
	for _, mu := range ups {
		im := r.idx[mu.Modality]
		if im == nil {
			im = make(map[string]entry, len(mu.Postings))
			r.idx[mu.Modality] = im
		}
		for _, p := range mu.Postings {
			im[p.L] = entry{doc: p.Doc, encFreq: p.EncFreq}
		}
	}
	r.v.storeCounters(r, ups)
	return nil
}

// StoreIndex replaces the entire index of every modality in ups — the
// upload at the end of USER.Train, which indexes all pre-training objects.
func (s *Server) StoreIndex(repoID string, ups []ModalityUpdate) error {
	r, err := s.repo(repoID)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, mu := range ups {
		im := make(map[string]entry, len(mu.Postings))
		for _, p := range mu.Postings {
			im[p.L] = entry{doc: p.Doc, encFreq: p.EncFreq}
		}
		r.idx[mu.Modality] = im
	}
	r.v.storeCounters(r, ups)
	return nil
}

func (r *repo) remove(docID string) {
	delete(r.objects, docID)
	for _, im := range r.idx {
		for l, e := range im {
			if e.doc == docID {
				delete(im, l)
			}
		}
	}
}

// put stores obj in place of any earlier version and its postings.
func (r *repo) put(obj Object) {
	r.remove(obj.ID)
	r.objects[obj.ID] = obj
}

// GetFeatures returns every sealed feature blob (USER.Train's download).
func (s *Server) GetFeatures(repoID string) (map[string][]byte, error) {
	r, err := s.repo(repoID)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]byte, len(r.objects))
	for id, o := range r.objects {
		out[id] = o.EncFvs
	}
	return out, nil
}

// GetObjects returns all ciphertexts+owners (the untrained linear-search
// download).
func (s *Server) GetObjects(repoID string) (map[string]Hit, error) {
	r, err := s.repo(repoID)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Hit, len(r.objects))
	for id := range r.objects {
		out[id] = r.hit(id, 0)
	}
	return out, nil
}

func (r *repo) hit(id string, score float64) Hit {
	o := r.objects[id]
	return Hit{Doc: id, Owner: o.Owner, Score: score, Ciphertext: o.Ciphertext}
}

// Search executes CLOUD.Search: the scheme's scoring of the trapdoors.
func (s *Server) Search(repoID string, qs []ModalityQuery, k int) (SearchResp, error) {
	r, err := s.repo(repoID)
	if err != nil {
		return SearchResp{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v.score(r, qs, k)
}

// matches returns the postings st's positions name in modality m, and the
// idf that many matches imply; nothing when there are none.
func (r *repo) matches(m string, st SearchTerm) ([]entry, float64) {
	var found []entry
	im := r.idx[m]
	for _, l := range st.Positions {
		if e, ok := im[l]; ok {
			found = append(found, e)
		}
	}
	if len(found) == 0 {
		return nil, 0
	}
	return found, math.Max(0, math.Log(float64(len(r.objects))/float64(len(found))))
}
