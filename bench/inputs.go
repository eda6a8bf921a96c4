package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/dataset"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/router"
	"mie/internal/wire"
)

// item is one pool entry: a plaintext object and its client-side encoding
// (extracted, DPE-encoded, AES-encrypted), prepared before anything is
// timed so that the pre-encoded workloads measure the cloud side only.
type item struct {
	obj *core.Object
	up  *core.Update
}

// doc is one object of the corpus ingested during set-up: the id it is
// stored under and the pool item whose content it carries.
type doc struct {
	repo int
	id   string
	item int
}

// query is one search input. source is the id of a corpus object carrying
// the same content, which a correct ranking returns among the top k.
type query struct {
	repo   int
	item   int
	source string
	q      *core.Query
}

type opKind uint8

const (
	opSearch opKind = iota
	opUpdate
	opRemove
)

func (k opKind) String() string {
	return [...]string{"search", "update", "remove"}[k]
}

// op is one operation of a workload's seeded sequence. Mutations go to the
// workload's only repository; a pre-encoded search to its query's.
type op struct {
	kind opKind
	// query indexes inputs.queries (pre-encoded searches).
	query int
	// id is the object written or removed; item is the pool content written,
	// or on mobile-mixed the content searched for.
	id   string
	item int
	// expect, when set, is an object id acknowledged earlier in the same
	// client's sequence that this search must return (read-your-writes).
	expect string
}

// opGen produces one client's operation sequence. Generators are pure
// functions of the seed: two built from the same inputs yield the same ops.
type opGen interface {
	next() op
}

// inputs is everything a workload run receives, generated from the seed
// alone. The program under test sees nothing else.
type inputs struct {
	workload string
	seed     int64
	sc       scale
	clients  int
	// viaHandle: the clients drive the public mie.Repository handle, which
	// encodes on the client, instead of sending pre-encoded payloads.
	// readOnly: the timed run issues searches only.
	viaHandle, readOnly bool

	cc       *core.Client
	dataKey  crypto.Key
	repoOpts wire.RepoOptions

	repoIDs []string
	pool    []item
	corpus  []doc
	queries []query

	newGens func() []opGen
	opHash  string
}

// Fixed key material: inputs must depend on the seed only, and the DPE
// encodings depend on the repository key.
var (
	benchRepoKey = core.RepositoryKey{Master: crypto.Key{0x4d, 0x49, 0x45, 1}}
	benchDataKey = crypto.Key{0x4d, 0x49, 0x45, 2}
)

// clientCount is the closed-loop client count of the pre-encoded workloads:
// min(nproc, 4) connections, one goroutine each.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func newCoreClient(sc scale) (*core.Client, error) {
	return core.NewClient(core.ClientConfig{
		Key:     benchRepoKey,
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: sc.OutDim, Threshold: 0.5},
		Pyramid: imaging.PyramidParams{Scales: sc.Pyramid},
	})
}

// ringHomed returns ids base-0, base-1, … whose ring-preferred node is the
// wanted one, in order. The ring is a pure function of the node names, so
// placement can be fixed before the deployment exists.
func ringHomed(ring *router.Ring, base string, want []string) []string {
	out := make([]string, 0, len(want))
	for i := 0; len(out) < len(want); i++ {
		id := fmt.Sprintf("%s-%d", base, i)
		if ring.Prefer(id)[0] == want[len(out)] {
			out = append(out, id)
		}
	}
	return out
}

// prepareInputs generates and encodes a workload's inputs from the seed.
func prepareInputs(workload string, seed int64, sc scale) (*inputs, error) {
	cc, err := newCoreClient(sc)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		workload: workload,
		seed:     seed,
		sc:       sc,
		clients:  clientCount(),
		cc:       cc,
		dataKey:  benchDataKey,
		repoOpts: wire.RepoOptions{
			VocabWords:        sc.Words,
			VocabMaxIter:      sc.TrainIters,
			TreeBranch:        sc.TreeBranch,
			TreeHeight:        sc.TreeHeight,
			TreeSeed:          1,
			TrainingSampleCap: sc.SampleCap,
		},
	}
	ring := router.NewRing([]string{nodeLeader, nodeFollower}, 0)
	rng := rand.New(rand.NewSource(seed))

	var objs []*core.Object
	switch workload {
	case wlSearchLarge:
		in.readOnly = true
		in.repoIDs = ringHomed(ring, "photos", []string{nodeLeader})
		objs = dataset.Flickr(dataset.FlickrParams{N: sc.LargeObjects, ImageSize: sc.ImageSize, Seed: seed})
		for i, o := range objs {
			in.corpus = append(in.corpus, doc{id: o.ID, item: i})
		}
		for _, i := range rng.Perm(len(objs))[:sc.LargeQueries] {
			in.queries = append(in.queries, query{item: i, source: objs[i].ID})
		}
		in.newGens = func() []opGen { return searchGens(seed, in.clients, len(in.queries)) }

	case wlFanoutSmall:
		// Alternate homes so that half the repositories are read from the
		// follower.
		in.readOnly = true
		want := make([]string, sc.FanoutRepos)
		for r := range want {
			want[r] = []string{nodeLeader, nodeFollower}[r%2]
		}
		in.repoIDs = ringHomed(ring, "tenant", want)
		objs = dataset.SyntheticText(dataset.SyntheticTextParams{
			N: sc.FanoutRepos * sc.FanoutDocs, VocabSize: sc.FanoutVocab, Seed: seed,
		})
		for i, o := range objs {
			r := i % sc.FanoutRepos
			in.corpus = append(in.corpus, doc{repo: r, id: o.ID, item: i})
			// The first four documents of every repository double as its
			// queries.
			if i < 4*sc.FanoutRepos {
				in.queries = append(in.queries, query{repo: r, item: i, source: o.ID})
			}
		}
		in.newGens = func() []opGen { return searchGens(seed, in.clients, len(in.queries)) }

	case wlIngestDurable:
		in.repoIDs = ringHomed(ring, "journal", []string{nodeLeader})
		objs = dataset.Flickr(dataset.FlickrParams{N: sc.IngestPool, ImageSize: sc.ImageSize, Seed: seed})
		initial := make([][]string, in.clients)
		for i := 0; i < sc.IngestObjects; i++ {
			c := i % in.clients
			id := fmt.Sprintf("o%d-%d", c, i)
			in.corpus = append(in.corpus, doc{id: id, item: i % len(objs)})
			initial[c] = append(initial[c], id)
		}
		for i := 0; i < len(objs) && i < 64; i++ {
			in.queries = append(in.queries, query{item: i, source: in.corpus[i].id})
		}
		in.newGens = func() []opGen {
			gens := make([]opGen, in.clients)
			for c := range gens {
				gens[c] = &ingestGen{
					rng:    rand.New(rand.NewSource(seed*1000 + int64(c) + 1)),
					client: c,
					live:   append([]string(nil), initial[c]...),
					pool:   len(objs),
				}
			}
			return gens
		}

	case wlMobileMixed:
		// One client; its repository is homed on the leader because a read
		// routed to the asynchronously replicated follower need not see the
		// client's own latest write.
		in.clients, in.viaHandle = 1, true
		in.repoIDs = ringHomed(ring, "album", []string{nodeLeader})
		objs = dataset.Flickr(dataset.FlickrParams{N: sc.MobilePool, ImageSize: sc.ImageSize, Seed: seed})
		for i := 0; i < sc.MobileObjects; i++ {
			in.corpus = append(in.corpus, doc{id: fmt.Sprintf("m-%d", i), item: i % len(objs)})
		}
		for i := 0; i < len(objs) && i < 64; i++ {
			in.queries = append(in.queries, query{item: i, source: in.corpus[i].id})
		}
		in.newGens = func() []opGen {
			r := rand.New(rand.NewSource(seed*1000 + 1))
			return []opGen{&mobileGen{rng: r, perm: r.Perm(len(objs))}}
		}

	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}

	if err := in.encode(objs); err != nil {
		return nil, err
	}
	in.opHash = in.hashInputs()
	return in, nil
}

// encode fills the pool and the pre-encoded queries on nproc goroutines.
func (in *inputs) encode(objs []*core.Object) error {
	in.pool = make([]item, len(objs))
	jobs := make(chan int)
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				if errs[w] != nil {
					continue
				}
				if j < len(objs) {
					up, err := in.cc.PrepareUpdate(objs[j], in.dataKey)
					in.pool[j], errs[w] = item{obj: objs[j], up: up}, err
				} else {
					q := &in.queries[j-len(objs)]
					q.q, errs[w] = in.cc.PrepareQuery(objs[q.item], in.sc.K)
				}
			}
		}(w)
	}
	for j := 0; j < len(objs)+len(in.queries); j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("encode inputs: %w", err)
		}
	}
	return nil
}

// updateFor returns the pool item's encoded update stored under id. The
// encodings and ciphertext are shared with the pool entry, never copied.
func (in *inputs) updateFor(itemIdx int, id string) *core.Update {
	up := *in.pool[itemIdx].up
	up.ObjectID = id
	return &up
}

// objectFor returns the pool item's plaintext object under id, for the
// stairs that encode on the client.
func (in *inputs) objectFor(itemIdx int, id string) *core.Object {
	obj := *in.pool[itemIdx].obj
	obj.ID = id
	return &obj
}

// hashedOps is how many operations of each client's sequence enter the hash.
const hashedOps = 512

// hashInputs digests the plaintext inputs and the head of every client's op
// sequence. Ciphertexts are left out: AES uses a random IV per encryption.
func (in *inputs) hashInputs() string {
	h := sha256.New()
	for _, id := range in.repoIDs {
		hashStr(h, id)
	}
	for _, it := range in.pool {
		hashStr(h, it.obj.ID)
		hashStr(h, it.obj.Text)
		if im := it.obj.Image; im != nil {
			var b [8]byte
			for _, p := range im.Pix {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
				h.Write(b[:])
			}
		}
	}
	for _, d := range in.corpus {
		hashStr(h, fmt.Sprintf("%d/%s/%d", d.repo, d.id, d.item))
	}
	for _, q := range in.queries {
		hashStr(h, fmt.Sprintf("%d/%d/%s", q.repo, q.item, q.source))
	}
	for _, g := range in.newGens() {
		for i := 0; i < hashedOps; i++ {
			o := g.next()
			hashStr(h, fmt.Sprintf("%d/%d/%s/%d/%s", o.kind, o.query, o.id, o.item, o.expect))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func hashStr(h hash.Hash, s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// searchGens gives every client its own uniform stream over the queries.
func searchGens(seed int64, clients, queries int) []opGen {
	gens := make([]opGen, clients)
	for c := range gens {
		gens[c] = &searchGen{rng: rand.New(rand.NewSource(seed*1000 + int64(c) + 1)), queries: queries}
	}
	return gens
}

type searchGen struct {
	rng     *rand.Rand
	queries int
}

func (g *searchGen) next() op { return op{kind: opSearch, query: g.rng.Intn(g.queries)} }

// ingestGen is one writer of ingest-durable: 70 % overwrite a live id, 20 %
// insert a fresh id, 10 % remove a live id. Each client owns a disjoint id
// space, so its ledger of acknowledged state needs no cross-client order.
type ingestGen struct {
	rng    *rand.Rand
	client int
	live   []string
	fresh  int
	pool   int
}

func (g *ingestGen) next() op {
	roll := g.rng.Intn(10)
	switch {
	case roll < 7 && len(g.live) > 0:
		return op{kind: opUpdate, id: g.live[g.rng.Intn(len(g.live))], item: g.rng.Intn(g.pool)}
	case roll == 9 && len(g.live) > 1:
		i := g.rng.Intn(len(g.live))
		id := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		return op{kind: opRemove, id: id}
	default:
		id := fmt.Sprintf("w%d-%d", g.client, g.fresh)
		g.fresh++
		g.live = append(g.live, id)
		return op{kind: opUpdate, id: id, item: g.rng.Intn(g.pool)}
	}
}

// mobileGen is the single mobile client: every block of 20 operations holds
// exactly 15 searches, 4 adds and 1 remove in a seeded order, so the mix —
// and with it bytes per operation — does not drift with how many operations
// a run completes. Adds walk the pool in a seeded permutation (so at most
// a few stored objects ever share one content and a read-your-writes search
// cannot lose its object among ties); a remove takes the oldest object this
// client added, and becomes an add while there is none. Three searches in
// ten look for an object added earlier and must find it.
type mobileGen struct {
	rng  *rand.Rand
	perm []int

	block []opKind
	adds  int
	added []op // live adds, oldest first
}

func (g *mobileGen) next() op {
	if len(g.block) == 0 {
		g.block = make([]opKind, 0, 20)
		for i := 0; i < 20; i++ {
			k := opSearch
			if i >= 15 {
				k = opUpdate
			}
			if i == 19 {
				k = opRemove
			}
			g.block = append(g.block, k)
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	if kind == opRemove && len(g.added) == 0 {
		kind = opUpdate
	}
	switch kind {
	case opUpdate:
		o := op{kind: opUpdate, id: fmt.Sprintf("a-%d", g.adds), item: g.perm[g.adds%len(g.perm)]}
		g.adds++
		g.added = append(g.added, o)
		return o
	case opRemove:
		o := g.added[0]
		g.added = g.added[1:]
		return op{kind: opRemove, id: o.id}
	}
	if len(g.added) > 0 && g.rng.Intn(10) < 3 {
		o := g.added[g.rng.Intn(len(g.added))]
		return op{kind: opSearch, item: o.item, expect: o.id}
	}
	return op{kind: opSearch, item: g.rng.Intn(len(g.perm))}
}
