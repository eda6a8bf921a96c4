package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mie/internal/cluster"
	"mie/internal/dpe"
	"mie/internal/index"
	"mie/internal/store"
	"mie/internal/vec"
)

// ModalityEngine is the per-modality retrieval logic behind the repository:
// everything the engine needs to know about ONE media type — how its
// encodings become opaque index terms, what (if anything) must be trained,
// and how to answer a query without an index. The repository drives all
// modalities through this one interface, so adding a fourth media type means
// writing one engine, not another copy of the index/search/train plumbing.
//
// Engines are immutable: Train and Restore return NEW engines rather than
// mutating the receiver. That is what lets the repository train codebooks
// off-lock against a store snapshot while the previous engine generation
// keeps serving searches, then install the new generation with one atomic
// pointer swap.
type ModalityEngine interface {
	// Modality names the media type this engine serves.
	Modality() Modality
	// Ready reports whether ExtractTerms/QueryTerms are usable — always for
	// sparse modalities, only after a codebook exists for dense ones.
	Ready() bool
	// InQuery reports whether the query carries data for this modality.
	InQuery(q *Query) bool
	// TrainingSample returns the encodings one stored object contributes to
	// codebook training; nil for modalities that need no training.
	TrainingSample(obj *storedObject) []vec.BitVec
	// Train returns a new engine trained on sample. Engines with nothing to
	// train — sparse modalities, or a dense modality with an empty sample —
	// return themselves unchanged (a dense engine keeps any existing
	// codebook, so a later retrain can pick up data that arrived since).
	Train(sample []vec.BitVec) (ModalityEngine, error)
	// Refine returns a new engine whose trained state is warm-start refined
	// from only the delta sample (the incremental half of Train). ok=false
	// means the engine cannot refine — it has data to learn from but no
	// prior codebook — and the caller must fall back to a full Train.
	// Engines with nothing to refine (sparse modalities, empty delta) return
	// themselves unchanged with ok=true and zero drift.
	Refine(delta []vec.BitVec) (eng ModalityEngine, drift cluster.DriftReport, ok bool, err error)
	// ExtractTerms maps one stored object's encodings for this modality into
	// index terms; nil when the object carries nothing for this modality or
	// the engine is not Ready.
	ExtractTerms(obj *storedObject) map[index.Term]uint64
	// QueryTerms maps a query into index terms, mirroring ExtractTerms, in
	// the strictly ascending term order index.Segmented.Lookup requires. It
	// returns ErrEncodingLength for encodings the codebook cannot quantize.
	QueryTerms(q *Query) ([]index.QueryTerm, error)
	// LinearSearch is the pre-training path: an exact ranked scan over the
	// whole store (Algorithm 9's linear branch). It returns
	// ErrEncodingLength when a query encoding cannot be compared with a
	// stored one.
	LinearSearch(q *Query, objects *store.Sharded[*storedObject], depth int) ([]index.Result, error)
	// SnapshotState returns the trained codebook words for serialization;
	// nil when the engine holds no trained state.
	SnapshotState() []vec.BitVec
	// Restore returns a new engine whose trained state is rebuilt from
	// snapshot words (the lookup tree is re-derived deterministically).
	Restore(words []vec.BitVec) (ModalityEngine, error)
	// CodebookSize returns the number of trained words (0 when untrained or
	// the modality needs no codebook).
	CodebookSize() int
	// codeBits returns the bit length of the trained words, which every
	// encoding of the modality must share (0 without a codebook).
	codeBits() int
}

// newEngines builds the text, image and audio engines in that fixed order
// (which is also the rank-fusion list order). Every repository has all three.
func newEngines(opts RepositoryOptions) []ModalityEngine {
	vocab := opts.vocab()
	return []ModalityEngine{
		textEngine{},
		&denseEngine{
			modality:  ModalityImage,
			prefix:    "vw:",
			encs:      func(o *storedObject) []vec.BitVec { return o.imageEncs },
			queryEncs: func(q *Query) []vec.BitVec { return q.ImageEncodings },
			params:    vocab,
		},
		&denseEngine{
			modality:  ModalityAudio,
			prefix:    "aw:",
			encs:      func(o *storedObject) []vec.BitVec { return o.audioEncs },
			queryEncs: func(q *Query) []vec.BitVec { return q.AudioEncodings },
			params:    vocab,
		},
	}
}

// ---------------------------------------------------------------------------
// Sparse (text) engine: Sparse-DPE tokens ARE the index terms; nothing to
// train (threshold t = 0, equality only).

type textEngine struct{}

func (textEngine) Modality() Modality                           { return ModalityText }
func (textEngine) Ready() bool                                  { return true }
func (textEngine) InQuery(q *Query) bool                        { return len(q.TextTokens) > 0 }
func (textEngine) TrainingSample(*storedObject) []vec.BitVec    { return nil }
func (e textEngine) Train([]vec.BitVec) (ModalityEngine, error) { return e, nil }
func (textEngine) SnapshotState() []vec.BitVec                  { return nil }
func (e textEngine) Refine([]vec.BitVec) (ModalityEngine, cluster.DriftReport, bool, error) {
	return e, cluster.DriftReport{}, true, nil
}
func (e textEngine) Restore([]vec.BitVec) (ModalityEngine, error) { return e, nil }
func (textEngine) CodebookSize() int                              { return 0 }
func (textEngine) codeBits() int                                  { return 0 }

// ExtractTerms keys each token by its 32 raw bytes. A snapshot writes the
// text index's terms in hex (hexTextTerms); the index itself never holds
// that form.
func (textEngine) ExtractTerms(obj *storedObject) map[index.Term]uint64 {
	if len(obj.textTokens) == 0 {
		return nil
	}
	terms := make(map[index.Term]uint64, len(obj.textTokens))
	for tok, freq := range obj.textTokens {
		terms[index.Term(tok[:])] = freq
	}
	return terms
}

// QueryTerms makes one string of the query's raw tokens and slices each
// term from it. The tokens are in ascending byte order, so the terms are too.
func (textEngine) QueryTerms(q *Query) ([]index.QueryTerm, error) {
	if len(q.TextTokens) == 0 {
		return nil, nil
	}
	const width = len(dpe.Token{})
	var raw strings.Builder
	raw.Grow(len(q.TextTokens) * width)
	for i := range q.TextTokens {
		raw.Write(q.TextTokens[i].Token[:])
	}
	all := raw.String()
	terms := make([]index.QueryTerm, len(q.TextTokens))
	for i, t := range q.TextTokens {
		terms[i] = index.QueryTerm{Term: index.Term(all[i*width : (i+1)*width]), Freq: t.Freq}
	}
	return terms, nil
}

// LinearSearch is the pre-training fallback: token-overlap TF scoring.
func (textEngine) LinearSearch(q *Query, objects *store.Sharded[*storedObject], depth int) ([]index.Result, error) {
	scores := make(map[index.DocID]float64)
	objects.Range(func(id string, obj *storedObject) bool {
		var s float64
		for _, t := range q.TextTokens {
			if tf, ok := obj.textTokens[t.Token]; ok {
				s += float64(t.Freq) * float64(tf)
			}
		}
		if s > 0 {
			scores[index.DocID(id)] = s
		}
		return true
	})
	return index.TopK(scores, depth), nil
}

// ---------------------------------------------------------------------------
// Dense engine: one implementation serves every dense modality (image,
// audio, and any future media type), parameterized by its term prefix and
// encoding accessors. This is the code that used to exist three times over.

type denseEngine struct {
	modality  Modality
	prefix    string
	encs      func(*storedObject) []vec.BitVec
	queryEncs func(*Query) []vec.BitVec
	params    cluster.VocabParams
	vocab     *cluster.Vocabulary[vec.BitVec] // nil until trained
	// Built with the codebook: each word's index term, the word's rank in
	// ascending term order ("vw:10" sorts before "vw:2"), and the terms in
	// that order.
	terms  []index.Term
	rank   []int
	sorted []index.Term
}

func (e *denseEngine) Modality() Modality { return e.modality }
func (e *denseEngine) Ready() bool        { return e.vocab != nil }
func (e *denseEngine) InQuery(q *Query) bool {
	return len(e.queryEncs(q)) > 0
}
func (e *denseEngine) TrainingSample(obj *storedObject) []vec.BitVec {
	return e.encs(obj)
}
func (e *denseEngine) CodebookSize() int {
	if e.vocab == nil {
		return 0
	}
	return e.vocab.Size()
}
func (e *denseEngine) codeBits() int {
	if e.CodebookSize() == 0 {
		return 0
	}
	return e.vocab.Word(0).Len()
}

// clusterFns returns the Hamming-space clustering and distance functions the
// vocabulary construction runs over — DPE encodings preserve plaintext
// distance as Hamming distance, so that is the space k-means must work in.
func (e *denseEngine) clusterFns() (cluster.Clusterer[vec.BitVec], func(a, b vec.BitVec) float64) {
	hamCluster := func(ps []vec.BitVec, k int, seed int64) ([]vec.BitVec, []int, error) {
		res, err := cluster.HammingKMeans(ps, k, cluster.Options{Seed: seed, MaxIter: e.params.MaxIter})
		if err != nil {
			return nil, nil, err
		}
		return res.Centroids, res.Assignments, nil
	}
	dist := func(a, b vec.BitVec) float64 { return float64(vec.Hamming(a, b)) }
	return hamCluster, dist
}

// Train runs flat k-means over the sample and builds the lookup tree. An
// empty sample keeps the engine as-is (existing codebook included) so the
// modality stays dormant until data exists — the retrain path of Train.
func (e *denseEngine) Train(sample []vec.BitVec) (ModalityEngine, error) {
	if len(sample) == 0 {
		return e, nil
	}
	hamCluster, dist := e.clusterFns()
	vocab, err := cluster.TrainVocabulary(sample, e.params, hamCluster, dist)
	if err != nil {
		return nil, err
	}
	return e.withVocab(vocab), nil
}

// withVocab returns a copy of e serving the given codebook, with the tables of
// index terms derived from it built once, so mapping an object or a query to
// terms formats no strings and a query sorts ints, not strings.
func (e *denseEngine) withVocab(vocab *cluster.Vocabulary[vec.BitVec]) *denseEngine {
	out := *e
	out.vocab = vocab
	out.terms = make([]index.Term, vocab.Size())
	for word := range out.terms {
		out.terms[word] = index.Term(e.prefix + strconv.Itoa(word))
	}
	byTerm := make([]int, len(out.terms)) // words in ascending term order
	for word := range byTerm {
		byTerm[word] = word
	}
	slices.SortFunc(byTerm, func(a, b int) int { return cmp.Compare(out.terms[a], out.terms[b]) })
	out.rank = make([]int, len(byTerm))
	out.sorted = make([]index.Term, len(byTerm))
	for r, word := range byTerm {
		out.rank[word] = r
		out.sorted[r] = out.terms[word]
	}
	return &out
}

// Refine warm-starts mini-batch k-means from the current codebook words and
// refines them against only the delta sample; the lookup tree is re-derived
// deterministically from the refined words, exactly as Restore does. Without
// a prior codebook refinement is impossible (ok=false): the caller falls
// back to a full Train. An empty delta keeps the engine unchanged.
func (e *denseEngine) Refine(delta []vec.BitVec) (ModalityEngine, cluster.DriftReport, bool, error) {
	if len(delta) == 0 {
		return e, cluster.DriftReport{}, true, nil
	}
	if e.vocab == nil {
		return e, cluster.DriftReport{}, false, nil
	}
	res, err := cluster.RefineHammingKMeans(e.vocab.Words(), delta, cluster.RefineOptions{})
	if err != nil {
		return nil, cluster.DriftReport{}, false, err
	}
	hamCluster, dist := e.clusterFns()
	vocab, err := cluster.NewVocabularyFromWords(res.Centroids, e.params.Tree, hamCluster, dist)
	if err != nil {
		return nil, cluster.DriftReport{}, false, err
	}
	return e.withVocab(vocab), res.Drift, true, nil
}

func (e *denseEngine) histTerms(encs []vec.BitVec) map[index.Term]uint64 {
	if e.vocab == nil || len(encs) == 0 {
		return nil
	}
	terms := make(map[index.Term]uint64, len(encs))
	for _, enc := range encs {
		terms[e.terms[e.vocab.Quantize(enc)]]++
	}
	return terms
}

func (e *denseEngine) ExtractTerms(obj *storedObject) map[index.Term]uint64 {
	return e.histTerms(e.encs(obj))
}

// QueryTerms quantizes the query's encodings into their words' term ranks,
// sorts those and counts each run: the histogram histTerms would build, in
// ascending term order.
func (e *denseEngine) QueryTerms(q *Query) ([]index.QueryTerm, error) {
	encs := e.queryEncs(q)
	if err := sameLength(e.modality, encs, e.codeBits()); err != nil {
		return nil, err
	}
	if e.vocab == nil || len(encs) == 0 {
		return nil, nil
	}
	ranks := make([]int, len(encs))
	for i, enc := range encs {
		ranks[i] = e.rank[e.vocab.Quantize(enc)]
	}
	slices.Sort(ranks)
	terms := make([]index.QueryTerm, 0, len(ranks))
	for i, r := range ranks {
		if i > 0 && r == ranks[i-1] {
			terms[len(terms)-1].Freq++
			continue
		}
		terms = append(terms, index.QueryTerm{Term: e.sorted[r], Freq: 1})
	}
	return terms, nil
}

// LinearSearch is the pre-codebook path, and exact: each query encoding votes
// for the object holding its nearest stored encoding (by Hamming distance),
// weighted by similarity. Update keeps the stored encodings at one length; a
// query encoding of another is refused at the first comparison.
func (e *denseEngine) LinearSearch(q *Query, objects *store.Sharded[*storedObject], depth int) ([]index.Result, error) {
	qEncs := e.queryEncs(q)
	scores := make(map[index.DocID]float64)
	var err error
	objects.Range(func(id string, obj *storedObject) bool {
		oEncs := e.encs(obj)
		if len(oEncs) == 0 {
			return true
		}
		var s float64
		for _, qe := range qEncs {
			best := 1.0
			for _, oe := range oEncs {
				if qe.Len() != oe.Len() {
					err = errLength(e.modality, qe.Len(), oe.Len())
					return false
				}
				if d := vec.NormHamming(qe, oe); d < best {
					best = d
				}
			}
			s += 1 - best
		}
		if s > 0 {
			scores[index.DocID(id)] = s
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return index.TopK(scores, depth), nil
}

// sameLength returns ErrEncodingLength unless every encoding in encs has
// want bits — or, while nothing fixes the length (want 0), the first one's —
// and that length is not zero.
func sameLength(m Modality, encs []vec.BitVec, want int) error {
	for _, enc := range encs {
		if want == 0 {
			want = enc.Len()
		}
		if enc.Len() != want || want == 0 {
			return errLength(m, enc.Len(), want)
		}
	}
	return nil
}

func errLength(m Modality, got, want int) error {
	return fmt.Errorf("%w: a %d-bit %s encoding where %d bits are held", ErrEncodingLength, got, m, want)
}

func (e *denseEngine) SnapshotState() []vec.BitVec {
	if e.vocab == nil {
		return nil
	}
	return e.vocab.Words()
}

// Restore rebuilds the codebook from serialized words; the lookup tree is
// re-derived deterministically, so post-restore quantization matches the
// pre-snapshot engine exactly.
func (e *denseEngine) Restore(words []vec.BitVec) (ModalityEngine, error) {
	if len(words) == 0 {
		return e, nil
	}
	hamCluster, dist := e.clusterFns()
	vocab, err := cluster.NewVocabularyFromWords(words, e.params.Tree, hamCluster, dist)
	if err != nil {
		return nil, err
	}
	return e.withVocab(vocab), nil
}
