// Package dpe implements Distance Preserving Encodings (DPE), the
// cryptographic core of MIE (paper §IV).
//
// A DPE scheme is a triple (KEYGEN, ENCODE, DISTANCE) such that the distance
// between two encodings equals the distance between the underlying
// plaintexts whenever that plaintext distance is below a threshold t chosen
// at key-generation time; for larger plaintext distances the encoded
// distance conveys nothing beyond "at least t". The threshold is the
// security dial: it upper-bounds what an honest-but-curious server can learn
// about relations between encoded feature vectors, while still allowing the
// server to run clustering and indexing on the encodings.
//
// Two implementations are provided, mirroring the paper:
//
//   - Dense (Algorithm 2): for dense high-dimensional media features
//     (images, audio, video). Universal scalar quantization
//     e(x) = Q(Δ⁻¹(A·x + w)) with Gaussian A and uniform dither w expanded
//     from a short key by a PRG. Euclidean distance between plaintexts is
//     preserved as normalized Hamming distance between bit-vector encodings
//     up to t, then saturates.
//
//   - Sparse (Algorithm 3): for sparse media (text keywords). A PRF with
//     threshold t = 0: encodings reveal equality and nothing else.
package dpe

import (
	"errors"
	"fmt"
	"math"

	"mie/internal/crypto"
	"mie/internal/vec"
)

// Common errors.
var (
	// ErrBadDimension is returned when a plaintext vector does not match the
	// scheme's configured input dimension.
	ErrBadDimension = errors.New("dpe: plaintext dimension mismatch")
	// ErrBadEncoding is returned when encodings of incompatible sizes are
	// compared.
	ErrBadEncoding = errors.New("dpe: encoding size mismatch")
	// ErrNonFinite is returned when a plaintext vector has a component that
	// is NaN, infinite, or finite but so large that Δ⁻¹(A·x + w) could leave
	// the int64 range. Quantizing such a value goes through a
	// float-to-integer conversion whose result Go leaves to the CPU, so two
	// devices sharing a repository key could encode the same object
	// differently.
	ErrNonFinite = errors.New("dpe: plaintext component is not finite or out of range")
)

// slopeConst is sqrt(2/pi): for Gaussian projections the expected bit-flip
// probability for plaintext distance d is ~ d*sqrt(2/pi)/Δ in the linear
// (sub-threshold) regime. Choosing Δ = slopeConst*(t/0.5) makes the raw
// normalized Hamming distance reach its ~0.5 saturation right around dp = t,
// so that after rescaling by 2t the encoded distance tracks dp below t and
// pins near t above it — exactly the contract of Definition 1.
var slopeConst = math.Sqrt(2 / math.Pi)

// Dense is the DPE implementation for dense media feature vectors.
// It is safe for concurrent use after construction.
type Dense struct {
	inDim    int
	outDim   int
	t        float64
	invDelta float64 // 1/Δ
	// maxAbs bounds a plaintext component's magnitude so that every
	// |Δ⁻¹(a·x + w)| stays below 2^62, inside what int64 holds.
	maxAbs float64
	// a is the outDim x inDim row-major projection matrix and w the outDim
	// dither values in [0, Δ), both padded with zero rows up to a multiple
	// of four so the kernel can always take four rows.
	a []float64
	w []float64
}

// DenseParams configures Dense-DPE key generation.
type DenseParams struct {
	// InDim is the plaintext feature-vector dimensionality (N). SURF-like
	// descriptors use 64.
	InDim int
	// OutDim is the encoding length in bits (M). Larger M reduces the noise
	// of the preserved distance at the cost of encoding size. The paper's
	// prototype uses OutDim == InDim scaled to bits; we default to
	// 8*InDim bits when zero, which keeps the byte size of the encoding
	// equal to a float32 vector of the same dimension.
	OutDim int
	// Threshold is t in (0, 1]: plaintext Euclidean distances below it are
	// preserved, larger ones are hidden. The paper's prototype uses 0.5.
	Threshold float64
}

// NewDense runs Dense-DPE KEYGEN: it expands key into the projection matrix
// A and dither w with a PRG and fixes the distance threshold. Plaintext
// vectors given to Encode must have distances bounded by 1 (normalize
// features accordingly).
func NewDense(key crypto.Key, params DenseParams) (*Dense, error) {
	if params.InDim <= 0 {
		return nil, fmt.Errorf("dpe: InDim must be positive, got %d", params.InDim)
	}
	if params.OutDim == 0 {
		params.OutDim = 8 * params.InDim
	}
	if params.OutDim <= 0 {
		return nil, fmt.Errorf("dpe: OutDim must be positive, got %d", params.OutDim)
	}
	if params.Threshold <= 0 || params.Threshold > 1 {
		return nil, fmt.Errorf("dpe: Threshold must be in (0,1], got %v", params.Threshold)
	}
	delta := slopeConst * (params.Threshold / 0.5)
	rows := (params.OutDim + 3) &^ 3
	d := &Dense{
		inDim:    params.InDim,
		outDim:   params.OutDim,
		t:        params.Threshold,
		invDelta: 1 / delta,
		a:        make([]float64, rows*params.InDim),
		w:        make([]float64, rows),
	}
	g := crypto.NewPRG(key, fmt.Sprintf("dense-dpe:%d:%d", params.InDim, params.OutDim))
	for i := range d.a[:params.OutDim*params.InDim] {
		d.a[i] = g.NormFloat64()
	}
	for i := range d.w[:params.OutDim] {
		d.w[i] = g.Float64() * delta
	}
	// |a·x| <= (Σ_j |a_j|)·max|x_j|, so the widest row fixes the bound.
	var widest float64
	for i := 0; i < params.OutDim; i++ {
		var l1 float64
		for _, a := range d.a[i*params.InDim:][:params.InDim] {
			l1 += math.Abs(a)
		}
		widest = math.Max(widest, l1)
	}
	d.maxAbs = math.Min(math.Ldexp(1, 62)/(widest*d.invDelta), math.MaxFloat64)
	return d, nil
}

// InDim returns the configured plaintext dimensionality.
func (d *Dense) InDim() int { return d.inDim }

// OutDim returns the encoding length in bits.
func (d *Dense) OutDim() int { return d.outDim }

// Threshold returns t: the largest plaintext distance the encodings preserve.
func (d *Dense) Threshold() float64 { return d.t }

// Encode runs Dense-DPE ENCODE on plaintext feature vector p, producing a
// bit-vector encoding. Deterministic: equal plaintexts yield equal encodings
// under the same key, which is what leaks (only) the patterns specified by
// the ideal functionality F_DPE.
func (d *Dense) Encode(p []float64) (vec.BitVec, error) {
	if err := d.check(p); err != nil {
		return vec.BitVec{}, err
	}
	e := vec.NewBitVec(d.outDim)
	d.encode(e, p)
	return e, nil
}

// EncodeAll runs ENCODE on every vector of descs and returns the encodings
// in the same order, each bit for bit what Encode returns for that vector.
// All of them are checked before any is encoded, so a bad vector costs no
// arithmetic or allocation. An empty descs yields nil.
func (d *Dense) EncodeAll(descs [][]float64) ([]vec.BitVec, error) {
	for i, p := range descs {
		if err := d.check(p); err != nil {
			return nil, fmt.Errorf("descriptor %d: %w", i, err)
		}
	}
	if len(descs) == 0 {
		return nil, nil
	}
	out := make([]vec.BitVec, len(descs))
	for i, p := range descs {
		out[i] = vec.NewBitVec(d.outDim)
		d.encode(out[i], p)
	}
	return out, nil
}

// check admits p to the kernel: the right dimension, and components that are
// finite and small enough to quantize.
func (d *Dense) check(p []float64) error {
	if len(p) != d.inDim {
		return fmt.Errorf("%w: got %d, want %d", ErrBadDimension, len(p), d.inDim)
	}
	for j, x := range p {
		if !(math.Abs(x) <= d.maxAbs) { // NaN compares false
			return fmt.Errorf("%w: component %d is %v", ErrNonFinite, j, x)
		}
	}
	return nil
}

// qbit is the quantizer Q(.) of Algorithm 2 applied to v = Δ⁻¹(a·x + w):
// [2k, 2k+1) -> 1 and [2k+1, 2k+2) -> 0, i.e. an even floor gives 1.
func qbit(v float64) uint64 { return uint64(int64(math.Floor(v)))&1 ^ 1 }

// encode is the kernel: one vector against four rows of A at a time. A dot
// product summed into one variable is a chain of dependent additions, and
// the time it takes is the adder's latency times InDim; four sums that do
// not depend on each other keep the adder busy. Each sum still runs over
// j = 0..InDim-1 in order, and the float64 conversions keep the compiler
// from fusing a product into the addition (arm64, ppc64le, s390x and riscv64
// would otherwise round once where amd64 rounds twice), so every output bit
// sees exactly the value a plain loop gives it, on every architecture
// (DESIGN.md §5 item 9). Each 64 output bits are assembled in a register and
// stored as one word. Rows past OutDim in the last group are the zero
// padding NewDense left; SetWord drops their bits.
func (d *Dense) encode(out vec.BitVec, p []float64) {
	n := d.inDim
	p = p[:n]
	for base := 0; base < d.outDim; base += 64 {
		var w uint64
		for b := 0; b < 64 && base+b < d.outDim; b += 4 {
			i := base + b
			r0, r1, r2, r3 := d.a[i*n:][:n], d.a[(i+1)*n:][:n], d.a[(i+2)*n:][:n], d.a[(i+3)*n:][:n]
			var d0, d1, d2, d3 float64
			for j, x := range p {
				d0 += float64(r0[j] * x)
				d1 += float64(r1[j] * x)
				d2 += float64(r2[j] * x)
				d3 += float64(r3[j] * x)
			}
			wi := d.w[i : i+4]
			w |= (qbit((d0+wi[0])*d.invDelta) |
				qbit((d1+wi[1])*d.invDelta)<<1 |
				qbit((d2+wi[2])*d.invDelta)<<2 |
				qbit((d3+wi[3])*d.invDelta)<<3) << uint(b)
		}
		out.SetWord(base/64, w)
	}
}

// Distance runs Dense-DPE DISTANCE on two encodings. It returns a value that
// approximates the plaintext Euclidean distance when that distance is below
// the threshold, and a value pinned near the threshold otherwise.
func (d *Dense) Distance(e1, e2 vec.BitVec) (float64, error) {
	if e1.Len() != d.outDim || e2.Len() != d.outDim {
		return 0, fmt.Errorf("%w: got %d and %d, want %d", ErrBadEncoding, e1.Len(), e2.Len(), d.outDim)
	}
	return vec.NormHamming(e1, e2) * 2 * d.t, nil
}

// RawNormHamming exposes the unscaled normalized Hamming distance between
// encodings; this is the quantity server-side Hamming k-means clusters on.
func (d *Dense) RawNormHamming(e1, e2 vec.BitVec) (float64, error) {
	if e1.Len() != d.outDim || e2.Len() != d.outDim {
		return 0, fmt.Errorf("%w: got %d and %d, want %d", ErrBadEncoding, e1.Len(), e2.Len(), d.outDim)
	}
	return vec.NormHamming(e1, e2), nil
}

// Token is a Sparse-DPE encoding of a single keyword: a PRF output. Tokens
// from the same key are equal iff the keywords are equal; nothing else about
// the keywords is revealed.
type Token [32]byte

// String renders the token as lowercase hex, handy as a map key and for the
// wire protocol.
func (t Token) String() string {
	const hexdigits = "0123456789abcdef"
	buf := make([]byte, 64)
	for i, b := range t {
		buf[2*i] = hexdigits[b>>4]
		buf[2*i+1] = hexdigits[b&0xf]
	}
	return string(buf)
}

// Sparse is the DPE implementation for sparse media (text). Its threshold is
// zero: DISTANCE reveals only equality. It is safe for concurrent use.
type Sparse struct {
	key crypto.Key
}

// NewSparse runs Sparse-DPE KEYGEN.
func NewSparse(key crypto.Key) *Sparse {
	return &Sparse{key: crypto.DeriveKey(key, "sparse-dpe")}
}

// Threshold returns 0: only equality is preserved.
func (s *Sparse) Threshold() float64 { return 0 }

// Encode runs Sparse-DPE ENCODE on a keyword: f(x) = P_K(x).
func (s *Sparse) Encode(keyword string) Token {
	var t Token
	copy(t[:], crypto.PRFString(s.key, keyword))
	return t
}

// Distance runs Sparse-DPE DISTANCE: 0 if the tokens match, 1 otherwise.
// Per Algorithm 3, distances above the threshold take a constant value (1),
// so even keywords one character apart look maximally distant.
func (s *Sparse) Distance(t1, t2 Token) float64 {
	if t1 == t2 {
		return 0
	}
	return 1
}
