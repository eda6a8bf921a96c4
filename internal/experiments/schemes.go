package experiments

import (
	"context"
	"fmt"
	"time"

	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/device"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/msse"
)

// Scheme names as they appear in the figures.
const (
	SchemeMSSE    = "MSSE"
	SchemeHomMSSE = "Hom-MSSE"
	SchemeMIE     = "MIE"
	SchemePlain   = "Plaintext"
)

// Schemes lists the comparison order of the figures.
func Schemes() []string { return []string{SchemeMSSE, SchemeHomMSSE, SchemeMIE} }

// scheme is one encrypted system as the paper's experiments drive it: an
// in-process client and server whose client-side cost lands on a meter.
type scheme interface {
	add(obj *core.Object) error
	// train makes the repository searchable by index; which side pays for
	// it is the comparison of Figures 2/3.
	train() error
	// search returns the ids of the top k objects, best first.
	search(query *core.Object, k int) ([]string, error)
	// queryClient returns another user of the same repository — same keys,
	// same trained state — whose cost lands on meter instead.
	queryClient(meter *device.Meter) (scheme, error)
}

// newScheme builds the named scheme over an empty repository.
func newScheme(name string, cfg Config, meter *device.Meter, repoID string) (scheme, error) {
	switch name {
	case SchemeMIE:
		return newMIE(cfg, meter, repoID, paperDense)
	case SchemeMSSE:
		return newBaseline(cfg, meter, repoID, msse.NewKeys(masterKey(2)), 0)
	case SchemeHomMSSE:
		keys, err := homKeys(cfg.PaillierBits)
		if err != nil {
			return nil, err
		}
		return newBaseline(cfg, meter, repoID, keys, 0.6)
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}

func masterKey(b byte) crypto.Key {
	var k crypto.Key
	for i := range k {
		k[i] = b
	}
	return k
}

func dataKey() crypto.Key { return masterKey(0xD7) }

// paperDense is the image Dense-DPE of every MIE stack the experiments
// build, bar the ablations' sweeps. OutDim 2048 keeps encodings at least as
// large as the plaintext descriptors (64 float32s), the condition §VII-D
// gives for Dense-DPE not to hurt retrieval precision.
var paperDense = dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 2048, Threshold: 0.5}

// mieStack bundles an in-process MIE deployment.
type mieStack struct {
	cfg    Config
	dense  dpe.DenseParams
	client *core.Client
	repo   *core.Repository
	meter  *device.Meter
}

// newMIE builds a MIE stack whose client encodes images with dense.
func newMIE(cfg Config, meter *device.Meter, repoID string, dense dpe.DenseParams) (*mieStack, error) {
	client, err := newMIEClient(cfg, meter, dense)
	if err != nil {
		return nil, err
	}
	repo, err := core.NewRepository(repoID, cfg.repoOptions())
	if err != nil {
		return nil, err
	}
	return &mieStack{cfg: cfg, dense: dense, client: client, repo: repo, meter: meter}, nil
}

func newMIEClient(cfg Config, meter *device.Meter, dense dpe.DenseParams) (*core.Client, error) {
	return core.NewClient(core.ClientConfig{
		Key:     core.RepositoryKey{Master: masterKey(1)},
		Dense:   dense,
		Pyramid: cfg.pyramid(),
		Meter:   meter,
	})
}

// add uploads one object through the MIE pipeline, charging the update's
// wire body.
func (m *mieStack) add(obj *core.Object) error {
	up, err := m.client.PrepareUpdate(obj, dataKey())
	if err != nil {
		return fmt.Errorf("mie update %s: %w", obj.ID, err)
	}
	if m.meter != nil {
		m.meter.AddTransfer(device.Network, int64(up.EncodedSize()), 0)
	}
	return m.repo.UpdateContext(context.Background(), up)
}

// train runs in the cloud: zero client cost, the whole point of the MIE
// design (the missing Train bar in Figures 2/3).
func (m *mieStack) train() error { return m.repo.TrainContext(context.Background()) }

func (m *mieStack) search(query *core.Object, k int) ([]string, error) {
	q, err := m.client.PrepareQuery(query, k)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	hits, err := m.repo.SearchContext(context.Background(), q)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(hits))
	var down int64
	for i, h := range hits {
		ids[i] = h.ObjectID
		down += int64(len(h.Ciphertext))
	}
	if m.meter != nil {
		// One round trip, as the protocol makes: the query up, the hits down.
		m.meter.AddTransfer(device.Network, int64(len(q.AppendTo(nil))), down)
		m.meter.AddServerTime(device.Network, time.Since(start))
	}
	return ids, nil
}

// queryClient: a client built from the same repository key produces
// identical trapdoors; only cost attribution differs.
func (m *mieStack) queryClient(meter *device.Meter) (scheme, error) {
	client, err := newMIEClient(m.cfg, meter, m.dense)
	return &mieStack{cfg: m.cfg, dense: m.dense, client: client, repo: m.repo, meter: meter}, err
}

// baseline bundles an in-process MSSE or Hom-MSSE deployment; the keys say
// which.
type baseline struct {
	client *msse.Client
	server *msse.Server
	repoID string
	config msse.ClientConfig
}

func newBaseline(cfg Config, meter *device.Meter, repoID string, keys msse.Keys, padding float64) (*baseline, error) {
	s := msse.NewServer()
	if err := s.CreateRepository(repoID, keys.Public()); err != nil {
		return nil, err
	}
	config := msse.ClientConfig{Keys: keys, Pyramid: cfg.pyramid(), Vocab: cfg.vocab(), Padding: padding, Meter: meter}
	return &baseline{client: msse.NewClient(config), server: s, repoID: repoID, config: config}, nil
}

// homKeys caches the Paillier pair per modulus size: key generation is the
// single most expensive setup step and the experiments only need key
// *usage* costs, which are independent of which particular pair is used.
var homKeyCache = map[int]msse.Keys{}

func homKeys(bits int) (msse.Keys, error) {
	keys, ok := homKeyCache[bits]
	if !ok {
		var err error
		if keys, err = msse.NewHomKeys(masterKey(3), bits); err != nil {
			return msse.Keys{}, err
		}
		homKeyCache[bits] = keys
	}
	return keys, nil
}

func baselineDoc(o *core.Object) *msse.Doc {
	return &msse.Doc{ID: o.ID, Owner: o.Owner, Text: o.Text, Image: o.Image}
}

func (b *baseline) add(obj *core.Object) error {
	return b.client.Update(b.server, b.repoID, baselineDoc(obj), dataKey())
}

func (b *baseline) train() error { return b.client.Train(b.server, b.repoID) }

func (b *baseline) search(query *core.Object, k int) ([]string, error) {
	hits, err := b.client.Search(b.server, b.repoID, baselineDoc(query), k)
	ids := make([]string, len(hits))
	for i, h := range hits {
		ids[i] = h.Doc
	}
	return ids, err
}

// queryClient shares the keys (a fresh Paillier pair could not read the
// repository) and the codebook, handed over out of band.
func (b *baseline) queryClient(meter *device.Meter) (scheme, error) {
	config := b.config
	config.Meter = meter
	q := &baseline{client: msse.NewClient(config), server: b.server, repoID: b.repoID, config: config}
	q.client.SetCodebook(b.client.Codebook())
	return q, nil
}

// mieSparseKey re-derives the Sparse-DPE key of the experiments' MIE client
// (the experimenter's ground-truth oracle for the attack experiment).
func mieSparseKey() crypto.Key {
	return crypto.DeriveKey(masterKey(1), "rk2")
}
