package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"mie/internal/audio"
	"mie/internal/crypto"
	"mie/internal/device"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/obs"
	"mie/internal/text"
	"mie/internal/vec"
)

// RepositoryKey is rk_R: the secret shared among a repository's authorized
// users. It fans out (by PRF derivation) into the Dense-DPE key rk1 and the
// Sparse-DPE key rk2 of Algorithm 5.
type RepositoryKey struct {
	Master crypto.Key
}

// NewRepositoryKey draws a fresh repository key.
func NewRepositoryKey() (RepositoryKey, error) {
	k, err := crypto.NewRandomKey()
	if err != nil {
		return RepositoryKey{}, err
	}
	return RepositoryKey{Master: k}, nil
}

// ClientConfig configures a client-side MIE component.
type ClientConfig struct {
	// Key is the repository key shared among authorized users.
	Key RepositoryKey
	// Dense configures Dense-DPE for the image modality; zero values
	// default to 64 input dims (SURF-like), 512-bit encodings and
	// threshold 0.5, the prototype's instantiation.
	Dense dpe.DenseParams
	// Pyramid configures the dense-pyramid image detector.
	Pyramid imaging.PyramidParams
	// Meter, when non-nil, attributes client CPU work to the figure
	// categories (feature extraction -> Index, DPE+AES -> Encrypt).
	Meter *device.Meter
}

// audioDenseParams configures Dense-DPE for the audio modality: 32-dim
// spectral descriptors, 8·32 = 256-bit encodings, threshold 0.5. Each dense
// modality gets its own DPE instance because descriptor dimensionalities
// differ; both derive from the same repository key.
var audioDenseParams = dpe.DenseParams{InDim: audio.DescriptorDim, OutDim: 8 * audio.DescriptorDim, Threshold: 0.5}

// Client is the trusted, client-side MIE component. It holds the repository
// key material but no per-keyword state: MIE clients are stateless (O(1)
// client storage in Table I), which is what makes multi-user concurrent
// writes trivial.
type Client struct {
	dense      *dpe.Dense
	audioDense *dpe.Dense
	sparse     *dpe.Sparse
	meter      *device.Meter
	pyr        imaging.PyramidParams
}

// NewClient builds a client component for one repository.
func NewClient(cfg ClientConfig) (*Client, error) {
	dp := cfg.Dense
	if dp.InDim == 0 {
		dp.InDim = imaging.DescriptorDim
	}
	if dp.Threshold == 0 {
		dp.Threshold = 0.5
	}
	dense, err := dpe.NewDense(crypto.DeriveKey(cfg.Key.Master, "rk1"), dp)
	if err != nil {
		return nil, fmt.Errorf("core: dense dpe: %w", err)
	}
	audioDense, err := dpe.NewDense(crypto.DeriveKey(cfg.Key.Master, "rk1-audio"), audioDenseParams)
	if err != nil {
		return nil, fmt.Errorf("core: audio dense dpe: %w", err)
	}
	return &Client{
		dense:      dense,
		audioDense: audioDense,
		sparse:     dpe.NewSparse(crypto.DeriveKey(cfg.Key.Master, "rk2")),
		meter:      cfg.Meter,
		pyr:        cfg.Pyramid,
	}, nil
}

// Dense exposes the client's Dense-DPE instance (for diagnostics and the
// Table II experiment).
func (c *Client) Dense() *dpe.Dense { return c.dense }

// Update is the encrypted payload of Algorithm 7's USER.Update: the
// AES-encrypted object plus its DPE-encoded feature vectors per modality.
// Everything here is safe to hand to the honest-but-curious cloud.
type Update struct {
	ObjectID   string
	Owner      string
	Ciphertext []byte
	// TextTokens maps each Sparse-DPE keyword token to its frequency in
	// the object's text modality.
	TextTokens map[dpe.Token]uint64
	// ImageEncodings holds one Dense-DPE encoding per extracted descriptor.
	ImageEncodings []vec.BitVec
	// AudioEncodings holds one Dense-DPE encoding per audio frame
	// descriptor.
	AudioEncodings []vec.BitVec
}

// Query is the encrypted payload of Algorithm 9's USER.Search: the query
// object's encoded feature vectors.
type Query struct {
	// TextTokens lists each Sparse-DPE keyword token of the query once, with
	// its frequency, in ascending token order: the order the wire carries
	// and the text index is walked in. SortedTokens builds it from a map;
	// Search refuses any other order.
	TextTokens     []TokenFreq
	ImageEncodings []vec.BitVec
	AudioEncodings []vec.BitVec
	K              int
}

// TokenFreq is one Sparse-DPE token and its frequency.
type TokenFreq struct {
	Token dpe.Token
	Freq  uint64
}

// SortedTokens returns a token-frequency map as a token list in ascending
// token order, the form a Query carries and the codec writes.
func SortedTokens(m map[dpe.Token]uint64) []TokenFreq {
	if len(m) == 0 {
		return nil
	}
	out := make([]TokenFreq, 0, len(m))
	for t, f := range m {
		out = append(out, TokenFreq{Token: t, Freq: f})
	}
	slices.SortFunc(out, func(x, y TokenFreq) int { return bytes.Compare(x.Token[:], y.Token[:]) })
	return out
}

// ErrEmptyObject is returned when an object carries no supported modality.
var ErrEmptyObject = errors.New("core: object has no modalities")

// PrepareUpdate runs the client half of Update: extract feature vectors
// from each modality (Index cost), encode them with DPE and encrypt the
// object under its data key (Encrypt cost). The server never sees the
// plaintext object or features.
func (c *Client) PrepareUpdate(obj *Object, dataKey crypto.Key) (*Update, error) {
	return c.PrepareUpdateContext(context.Background(), obj, dataKey)
}

// PrepareUpdateContext is PrepareUpdate carrying the caller's context, so
// the extract/encode spans join the request's distributed trace.
func (c *Client) PrepareUpdateContext(ctx context.Context, obj *Object, dataKey crypto.Key) (*Update, error) {
	if obj.ID == "" {
		return nil, errors.New("core: object needs an ID")
	}
	if obj.Text == "" && obj.Image == nil && obj.Audio == nil {
		return nil, ErrEmptyObject
	}
	_, sp := obs.StartSpan(ctx, obs.Default(), "client/prepare_update")
	defer sp.End()
	esp := sp.Child("extract")
	hist, descs, audioDescs, err := c.extractFeatures(obj)
	esp.End()
	if err != nil {
		return nil, err
	}
	up := &Update{ObjectID: obj.ID, Owner: obj.Owner}
	var encodeErr error
	csp := sp.Child("encode")
	c.timeCPU(device.Encrypt, func() {
		up.TextTokens = c.encodeText(hist)
		up.ImageEncodings, encodeErr = c.encodeDense(c.dense, descs)
		if encodeErr != nil {
			return
		}
		up.AudioEncodings, encodeErr = c.encodeDense(c.audioDense, audioDescs)
		if encodeErr != nil {
			return
		}
		plain, err := obj.Marshal()
		if err != nil {
			encodeErr = err
			return
		}
		up.Ciphertext, encodeErr = crypto.NewCipher(dataKey).Encrypt(plain)
	})
	csp.End()
	if encodeErr != nil {
		return nil, encodeErr
	}
	return up, nil
}

// PrepareQuery runs the client half of Search: the query object is
// processed exactly like an update — extract, encode — but nothing is
// encrypted or stored.
func (c *Client) PrepareQuery(obj *Object, k int) (*Query, error) {
	return c.PrepareQueryContext(context.Background(), obj, k)
}

// PrepareQueryContext is PrepareQuery carrying the caller's context.
func (c *Client) PrepareQueryContext(ctx context.Context, obj *Object, k int) (*Query, error) {
	if k <= 0 {
		return nil, errors.New("core: k must be positive")
	}
	if obj.Text == "" && obj.Image == nil && obj.Audio == nil {
		return nil, ErrEmptyObject
	}
	_, sp := obs.StartSpan(ctx, obs.Default(), "client/prepare_query")
	defer sp.End()
	esp := sp.Child("extract")
	hist, descs, audioDescs, err := c.extractFeatures(obj)
	esp.End()
	if err != nil {
		return nil, err
	}
	q := &Query{K: k}
	var encodeErr error
	csp := sp.Child("encode")
	c.timeCPU(device.Encrypt, func() {
		q.TextTokens = SortedTokens(c.encodeText(hist))
		q.ImageEncodings, encodeErr = c.encodeDense(c.dense, descs)
		if encodeErr != nil {
			return
		}
		q.AudioEncodings, encodeErr = c.encodeDense(c.audioDense, audioDescs)
	})
	csp.End()
	if encodeErr != nil {
		return nil, encodeErr
	}
	return q, nil
}

// DecryptObject recovers a plaintext object from a search/read result using
// its data key (requested from the owner out of band, per the system model).
func DecryptObject(ciphertext []byte, dataKey crypto.Key) (*Object, error) {
	plain, err := crypto.NewCipher(dataKey).Decrypt(ciphertext)
	if err != nil {
		return nil, err
	}
	return UnmarshalObject(plain)
}

// extractFeatures performs the plaintext feature extraction (Index cost),
// after refusing an image whose pixels do not match its dimensions.
func (c *Client) extractFeatures(obj *Object) (text.Histogram, [][]float64, [][]float64, error) {
	if obj.Image != nil {
		if err := obj.Image.Validate(); err != nil {
			return nil, nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	var hist text.Histogram
	var descs, audioDescs [][]float64
	c.timeCPU(device.Index, func() {
		if obj.Text != "" {
			hist = text.Extract(obj.Text)
		}
		if obj.Image != nil {
			descs = imaging.Extract(obj.Image, c.pyr)
		}
		if obj.Audio != nil {
			audioDescs = audio.Extract(obj.Audio)
		}
	})
	return hist, descs, audioDescs, nil
}

func (c *Client) encodeText(hist text.Histogram) map[dpe.Token]uint64 {
	if len(hist) == 0 {
		return nil
	}
	out := make(map[dpe.Token]uint64, len(hist))
	for _, term := range hist {
		out[c.sparse.Encode(term.Word)] = term.Freq
	}
	return out
}

func (c *Client) encodeDense(enc *dpe.Dense, descs [][]float64) ([]vec.BitVec, error) {
	out, err := enc.EncodeAll(descs, c.encodeWorkers())
	if err != nil {
		return nil, fmt.Errorf("core: encode: %w", err)
	}
	return out, nil
}

// encodeWorkers is how many goroutines one modality's Dense-DPE encode fans
// out over: every core, except on a metered client. A Meter charges the wall
// time of the encode as one core's device work (the figures' Encrypt bars and
// mAh), which parallel wall time is not, so a metered client encodes serially.
func (c *Client) encodeWorkers() int {
	if c.meter != nil {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

func (c *Client) timeCPU(cat device.Category, fn func()) {
	if c.meter == nil {
		fn()
		return
	}
	c.meter.TimeCPU(cat, fn)
}
