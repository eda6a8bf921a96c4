package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mie/internal/cluster"
	"mie/internal/dpe"
	"mie/internal/fusion"
	"mie/internal/index"
	"mie/internal/obs"
	"mie/internal/store"
	"mie/internal/vec"
	"mie/internal/wal"
)

// repoMetrics holds a repository's observability handles. Phase timings
// (train, index build, per-modality search, fusion) land in the process
// registry as phase_seconds{phase=repo/...} histograms — the cloud-side half
// of the paper's latency breakdowns — the gauges track repository and
// codebook sizes, and the leak* counters surface the paper's leakage profile
// (ID(d) access pattern, ID(w) search-pattern repeats, freq(w) update
// leakage) as live per-repository telemetry.
type repoMetrics struct {
	reg             *obs.Registry
	objects         *obs.Gauge
	vocabWords      *obs.Gauge
	audioVocabWords *obs.Gauge

	leakAccessReveals  *obs.Counter
	leakSearchRepeats  *obs.Counter
	leakUpdateTokens   *obs.Counter
	leakSearchDistinct *obs.Gauge
	leakUpdateDistinct *obs.Gauge

	// Segment/compaction telemetry: sealed-segment and memtable sizes across
	// the per-modality indexes, background-compaction outcomes, and how every
	// Train resolved (full rebuild vs incremental refinement vs forced back
	// to full by codebook drift; last drift in permille of bits shifted).
	indexSegments    *obs.Gauge
	memtableDocs     *obs.Gauge
	deadDocs         *obs.Gauge
	compactions      *obs.Counter
	trainFull        *obs.Counter
	trainIncremental *obs.Counter
	driftFallbacks   *obs.Counter
	driftPermille    *obs.Gauge
}

func newRepoMetrics(reg *obs.Registry, id string) *repoMetrics {
	return &repoMetrics{
		reg:             reg,
		objects:         reg.Gauge(obs.L("repo_objects", "repo", id)),
		vocabWords:      reg.Gauge(obs.L("repo_vocab_words", "repo", id)),
		audioVocabWords: reg.Gauge(obs.L("repo_audio_vocab_words", "repo", id)),

		leakAccessReveals:  reg.Counter(obs.L("repo_leak_access_reveals_total", "repo", id)),
		leakSearchRepeats:  reg.Counter(obs.L("repo_leak_search_repeats_total", "repo", id)),
		leakUpdateTokens:   reg.Counter(obs.L("repo_leak_update_token_mass_total", "repo", id)),
		leakSearchDistinct: reg.Gauge(obs.L("repo_leak_distinct_search_tokens", "repo", id)),
		leakUpdateDistinct: reg.Gauge(obs.L("repo_leak_distinct_update_tokens", "repo", id)),

		indexSegments:    reg.Gauge(obs.L("repo_index_segments", "repo", id)),
		memtableDocs:     reg.Gauge(obs.L("repo_index_memtable_docs", "repo", id)),
		deadDocs:         reg.Gauge(obs.L("repo_index_dead_docs", "repo", id)),
		compactions:      reg.Counter(obs.L("repo_index_compactions_total", "repo", id)),
		trainFull:        reg.Counter(obs.L("repo_train_full_total", "repo", id)),
		trainIncremental: reg.Counter(obs.L("repo_train_incremental_total", "repo", id)),
		driftFallbacks:   reg.Counter(obs.L("repo_train_drift_fallback_total", "repo", id)),
		driftPermille:    reg.Gauge(obs.L("repo_train_drift_permille", "repo", id)),
	}
}

// ErrUnknownObject is returned by Get for absent ids.
var ErrUnknownObject = errors.New("core: unknown object")

// ErrEncodingLength is returned by Update and Search for a dense encoding
// the engine cannot compare with the codes of its modality: an empty one, or
// one whose bit length differs from the rest of the request's, from the
// codebook words' once the modality has a codebook, or otherwise from the
// stored encodings'. Hamming distance is only defined between codes of one
// length.
var ErrEncodingLength = errors.New("core: dense encoding length mismatch")

// RepositoryOptions configures the server-side engine of one repository.
type RepositoryOptions struct {
	// Modalities the repository accepts; empty means both.
	Modalities []Modality
	// Vocab configures visual-word training: a flat k-means selects
	// Vocab.Words visual words (paper: 1000) and a lookup tree (paper:
	// branch 10, height 3) is built over them. Zero values take the
	// paper's shape.
	Vocab cluster.VocabParams
	// TrainingSampleCap bounds how many encodings feed k-means; 0 means
	// 20000. Training cost is the cloud's to pay, but tests want it tunable.
	TrainingSampleCap int
	// FusionCandidates is the per-modality candidate depth fed to rank
	// fusion before truncating to k; 0 means 10*k.
	FusionCandidates int
	// Incremental tunes incremental training and the segmented index.
	Incremental IncrementalOptions
}

// IncrementalOptions governs the incremental train/index pipeline: how large
// the mutable memtable segment may grow, when background compaction merges
// sealed segments, and how much codebook drift a warm-started refinement may
// accumulate before Train falls back to a full re-cluster + index rebuild.
type IncrementalOptions struct {
	// Disable forces every Train through the full rebuild path (the
	// pre-incremental behavior). The segmented index layout is kept.
	Disable bool
	// DriftThreshold is the normalized mean centroid Hamming shift above
	// which a refined codebook is rejected and Train re-clusters from
	// scratch. 0 means 0.15; negative disables the check.
	DriftThreshold float64
	// ReassignThreshold is the fraction of delta samples whose nearest word
	// changed during refinement above which Train re-clusters from scratch.
	// 0 means 0.5; negative disables the check.
	ReassignThreshold float64
	// MemtableCap is the per-index memtable size at which it auto-seals into
	// an immutable segment; 0 means index.DefaultMemtableCap.
	MemtableCap int
	// CompactSegments is the sealed-segment count that triggers background
	// compaction; 0 means index.DefaultCompactSegments.
	CompactSegments int
}

func (o *RepositoryOptions) setDefaults() {
	if len(o.Modalities) == 0 {
		o.Modalities = []Modality{ModalityText, ModalityImage, ModalityAudio}
	}
	if o.Vocab.Words == 0 {
		o.Vocab.Words = 1000
	}
	if o.Vocab.Tree.Branch == 0 {
		o.Vocab.Tree.Branch = 10
	}
	if o.Vocab.Tree.Height == 0 {
		o.Vocab.Tree.Height = 3
	}
	if o.TrainingSampleCap == 0 {
		o.TrainingSampleCap = 20000
	}
	if o.Incremental.DriftThreshold == 0 {
		o.Incremental.DriftThreshold = 0.15
	}
	if o.Incremental.ReassignThreshold == 0 {
		o.Incremental.ReassignThreshold = 0.5
	}
	if o.Incremental.MemtableCap == 0 {
		o.Incremental.MemtableCap = index.DefaultMemtableCap
	}
	if o.Incremental.CompactSegments == 0 {
		o.Incremental.CompactSegments = index.DefaultCompactSegments
	}
}

// WithDefaults returns a copy of o with zero fields replaced by the values
// NewRepository would apply — the normalized form callers compare against
// Repository.Options to detect a configuration mismatch on re-open.
func (o RepositoryOptions) WithDefaults() RepositoryOptions {
	o.setDefaults()
	return o
}

// SearchHit is one ranked result returned to the querying user: the
// encrypted object, its deterministic id and owner (the metadata pair of
// §III-A) and the fused relevance score.
type SearchHit struct {
	ObjectID   string
	Owner      string
	Score      float64
	Ciphertext []byte
}

// storedObject is the server-side record of one data object. It is
// immutable once stored: Update replaces the whole record, so readers may
// hold one without locking.
type storedObject struct {
	owner      string
	ciphertext []byte
	textTokens map[dpe.Token]uint64
	imageEncs  []vec.BitVec
	audioEncs  []vec.BitVec
}

// repoState is one epoch of derived state: the engine set (codebooks
// included) and the per-engine inverted indexes built by the last Train.
// States are immutable; Train builds the next one off-lock and installs it
// with a single atomic pointer swap, so readers never block on training.
type repoState struct {
	epoch   uint64
	trained bool
	// engines is the per-modality retrieval logic, in fusion order
	// (text, image, audio).
	engines []ModalityEngine
	// indexes is parallel to engines; nil before the first Train. An
	// incremental Train carries these pointers forward into the next epoch
	// (only the engines change), so retiring an epoch must only close its
	// indexes when the successor actually replaced them.
	indexes []*index.Segmented
}

// indexed reports whether this epoch answers modality i from its inverted
// index: the repository is trained, the index exists and the engine has what
// it needs to map encodings to terms. The predicate is per modality — a
// dense modality that had no data at Train time stays un-Ready inside a
// trained repository. It decides which branch a search takes: the index, or
// the engine's exact linear scan.
func (st *repoState) indexed(i int) bool {
	return st.trained && st.indexes[i] != nil && st.engines[i].Ready()
}

// unindex drops id's postings from every index of the epoch.
func (st *repoState) unindex(id string) {
	doc := index.DocID(id)
	for _, idx := range st.indexes {
		if idx != nil {
			idx.Remove(doc)
		}
	}
}

// Repository is the untrusted server-side engine for one shared repository:
// it stores ciphertexts and DPE encodings, trains the visual-word codebook,
// maintains one inverted index per modality, and answers ranked multimodal
// queries. All methods are safe for concurrent use by multiple users, which
// is the multi-writer capability Figure 4 exercises.
//
// The engine is layered: a sharded object store (internal/store) underneath,
// one ModalityEngine per media type above it, and an epoch-swapped index set
// on top. Reads (Get/Search) take no repository-wide lock — they load the
// current epoch atomically and go through the store's shard locks only.
// Train never blocks them: it builds codebooks (and, for a full rebuild,
// fresh indexes from a store snapshot) off-lock, re-indexes the ids written
// meanwhile from the store, and swaps the new epoch in atomically.
type Repository struct {
	id   string
	opts RepositoryOptions
	met  *repoMetrics
	leak *Leakage

	// resident approximates the repository's heap footprint — ciphertexts,
	// encodings and a per-object indexing overhead — maintained
	// incrementally by Update/Remove and recomputed at snapshot load. The
	// service lifecycle manager sums it across active repositories against
	// the configured MemoryBudget.
	resident atomic.Int64
	// gov (nil without quotas; written under writeMu before the repository
	// serves requests) charges per-tenant footprint to the owner of every
	// mutation and rejects over-quota updates before they reach the WAL.
	gov *TenantGovernor

	// objects is the storage layer: ciphertext + encodings per object id.
	objects *store.Sharded[*storedObject]

	// state is the current epoch (engines + indexes); swapped by Train.
	state atomic.Pointer[repoState]

	// writeMu serializes mutators (Update/Remove), index maintenance and
	// epoch installs with each other. Readers never take it.
	writeMu sync.Mutex
	// tap (nil unless replication is enabled, guarded by writeMu like gov)
	// observes every durably logged mutation and epoch install.
	tap ReplicationTap
	// wal (nil for non-durable repositories, guarded by writeMu) is the
	// repository's write-ahead log: every mutation is appended before it is
	// applied, so an acknowledged write is replayable after a crash.
	wal *wal.Log
	// deltaIDs (guarded by writeMu) is the one record of what changed: the
	// object ids touched by Update/Remove since a Train last took the set
	// aside. Ids only — what an id holds is read from the store when it is
	// needed. Train takes the set aside and starts a fresh one; a run that
	// does not install merges what it took back.
	deltaIDs map[string]struct{}
	// codes (guarded by writeMu) is parallel to the engine set: what the
	// stored encodings of modality i have in common. Update keeps every one of
	// them at one bit length, so the exact scan never meets two.
	codes []codeCount
	// trainMu serializes Train calls; searches and writes proceed under it.
	trainMu sync.Mutex
	// jobs tracks asynchronous training runs (TrainStart/TrainWait).
	jobs jobTable
	// lastTrain records how the most recent Train resolved (for telemetry
	// and the incremental-vs-rebuild experiment).
	lastTrain atomic.Pointer[TrainInfo]

	// Background-compaction control: compacting is a single-flight latch,
	// compactMu guards the remaining fields against the WaitGroup add/wait
	// race on Close, and compactWG tracks the in-flight compactor goroutine.
	// A request arriving while a pass is in flight is not dropped: it sets
	// compactPending (carrying the start hook active at request time) and the
	// compactor runs one more pass before exiting.
	compacting     atomic.Bool
	compactMu      sync.Mutex
	compactClosed  bool
	compactPending bool
	pendingHook    func()
	compactWG      sync.WaitGroup
}

// codeCount counts the stored objects that carry encodings of one modality;
// bits is the length all of those encodings have while there are any.
type codeCount struct{ holders, bits int }

// TrainInfo describes how one Train call resolved.
type TrainInfo struct {
	// Epoch is the generation the train installed.
	Epoch uint64
	// Mode is "full" (re-cluster + index rebuild) or "incremental"
	// (warm-started codebook refinement over the delta, indexes carried).
	Mode string
	// DriftFallback is true when an incremental attempt measured drift over
	// threshold and the run was forced through the full path.
	DriftFallback bool
	// Drift is the refinement drift report (incremental attempts only).
	Drift cluster.DriftReport
	// DeltaDocs is the number of changed objects the incremental path
	// refined from and re-indexed.
	DeltaDocs int
}

// LastTrain returns how the most recent Train resolved (nil before any).
func (r *Repository) LastTrain() *TrainInfo { return r.lastTrain.Load() }

// Test hooks (nil outside tests): updateIndexHook injects an index failure
// for one modality inside Update's index step, so the rollback path is
// testable; trainInstallHook runs off-lock once the next epoch's codebooks
// and indexes are ready, just before the re-index and install, so tests can
// hold a Train in flight deterministically.
var (
	updateIndexHook  func(Modality) error
	trainInstallHook func()
	searchStartHook  func()
	// compactStartHook runs inside the background compactor goroutine before
	// it touches any index, so tests can freeze a compaction mid-flight (the
	// crash-matrix case) or serialize against it.
	compactStartHook func()
)

// SetTrainInstallHookForTest installs (or, with nil, clears) the off-lock
// pre-install training hook. Test support for packages outside core — e.g.
// the server tests hold a Train RPC in flight with it to prove searches
// keep being served over the wire. Never set in production code.
func SetTrainInstallHookForTest(f func()) { trainInstallHook = f }

// SetSearchStartHookForTest installs (or, with nil, clears) a hook that runs
// at the top of every Search. Server tests use it to hold a Search RPC in
// flight so cancellation mid-search is observable deterministically. Never
// set in production code.
func SetSearchStartHookForTest(f func()) { searchStartHook = f }

// NewRepository creates the server-side representation of a repository
// (CLOUD.CreateRepository of Algorithm 5).
func NewRepository(id string, opts RepositoryOptions) (*Repository, error) {
	if id == "" {
		return nil, errors.New("core: repository needs an id")
	}
	opts.setDefaults()
	engines := newEngines(opts)
	r := &Repository{
		id:       id,
		opts:     opts,
		met:      newRepoMetrics(obs.Default(), id),
		objects:  store.New[*storedObject](store.DefaultShards),
		leak:     newLeakage(),
		deltaIDs: make(map[string]struct{}),
		codes:    make([]codeCount, len(engines)),
	}
	r.state.Store(&repoState{engines: engines})
	return r, nil
}

// setGovernor hands the repository its service's admission governor.
// Called before the repository serves requests (creation, activation,
// recovery); mutators read it under writeMu.
func (r *Repository) setGovernor(g *TenantGovernor) {
	r.writeMu.Lock()
	r.gov = g
	r.writeMu.Unlock()
}

// repoBaseBytes approximates the fixed overhead of one resident repository:
// metric handles, engines, empty indexes and store shards.
const repoBaseBytes = 64 << 10

// ResidentBytes approximates the repository's in-memory footprint. It is
// deliberately an estimate — good to sizing order, cheap to read — which is
// all LRU eviction under a memory budget needs.
func (r *Repository) ResidentBytes() int64 { return repoBaseBytes + r.resident.Load() }

// approxObjectBytes estimates the resident cost of one stored object:
// ciphertext, text tokens (32-byte tokens plus map and posting overhead),
// and packed encoding words counted twice — once stored, once again for
// what is derived from them, postings and segment columns. The second term
// is deliberately kept for modalities without a codebook, which derive
// nothing: tenancy budgets are calibrated against this estimate.
func approxObjectBytes(obj *storedObject) int64 {
	n := int64(len(obj.ciphertext)) + 96
	n += int64(len(obj.textTokens)) * 80
	for _, v := range obj.imageEncs {
		n += int64((v.Len()+63)/64)*16 + 48
	}
	for _, v := range obj.audioEncs {
		n += int64((v.Len()+63)/64)*16 + 48
	}
	return n
}

// ID returns the repository's deterministic identifier (setup leakage).
func (r *Repository) ID() string { return r.id }

// Options returns the engine parameters the repository was created with
// (defaults applied). Callers re-opening an existing repository compare
// against it to detect a configuration mismatch.
func (r *Repository) Options() RepositoryOptions { return r.opts }

// Leakage exposes the record of information patterns the server observed;
// tests assert against it and the bench harness reports it.
func (r *Repository) Leakage() *Leakage { return r.leak }

// Size returns the number of stored objects.
func (r *Repository) Size() int { return r.objects.Len() }

// IsTrained reports whether Train has completed.
func (r *Repository) IsTrained() bool { return r.state.Load().trained }

// VocabularySize returns the number of visual words after training (0
// before).
func (r *Repository) VocabularySize() int { return r.codebookSize(ModalityImage) }

// AudioVocabularySize returns the number of audio words after training.
func (r *Repository) AudioVocabularySize() int { return r.codebookSize(ModalityAudio) }

func (r *Repository) codebookSize(m Modality) int {
	for _, eng := range r.state.Load().engines {
		if eng.Modality() == m {
			return eng.CodebookSize()
		}
	}
	return 0
}

// Update stores (or replaces) an encrypted object and its encodings
// (CLOUD.Update, Algorithm 7). If the repository is trained the object is
// indexed immediately; otherwise indexing happens at Train time. Update is
// atomic: either the object is stored and fully indexed across every
// modality, or (on an index error) the previous state — prior object and
// postings, or absence — is restored and the error returned.
func (r *Repository) Update(up *Update) error {
	return r.UpdateContext(context.Background(), up)
}

// UpdateContext is Update carrying the caller's context, so the update's
// phase spans (index, wal_append) join the request's distributed trace.
func (r *Repository) UpdateContext(ctx context.Context, up *Update) error {
	if up.ObjectID == "" {
		return errors.New("core: update needs an object id")
	}
	_, sp := obs.StartSpan(ctx, r.met.reg, "repo/update")
	defer sp.End()
	obj := &storedObject{
		owner:      up.Owner,
		ciphertext: up.Ciphertext,
		textTokens: up.TextTokens,
		imageEncs:  up.ImageEncodings,
		audioEncs:  up.AudioEncodings,
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	// Installs happen under writeMu too, so st is the epoch this update lands
	// in. Encodings the engine could not compare are refused before anything
	// is charged or logged.
	st := r.state.Load()
	if err := r.checkLengths(st, obj); err != nil {
		return err
	}
	newBytes := approxObjectBytes(obj)
	var prevBytes int64
	var prevOwner string
	prevObj, hadPrev := r.objects.Get(up.ObjectID)
	if hadPrev {
		prevBytes = approxObjectBytes(prevObj)
		prevOwner = prevObj.owner
	}
	// Admission: the owner's quota is checked-and-charged before the WAL
	// sees the mutation, so a rejected update leaves no trace anywhere.
	if err := r.gov.chargeUpdate(up.Owner, newBytes, prevOwner, prevBytes, hadPrev); err != nil {
		return err
	}
	// Write-ahead: the mutation reaches the log before it touches memory,
	// so success is only ever reported for a replayable write.
	if err := r.walAppend(sp, up, up.ObjectID); err != nil {
		r.gov.undoUpdate(up.Owner, newBytes, prevOwner, prevBytes, hadPrev)
		return err
	}
	prev, replaced := r.objects.Put(up.ObjectID, obj)
	if replaced {
		st.unindex(up.ObjectID)
	}
	if st.trained {
		isp := sp.Child("index")
		err := indexObject(st, up.ObjectID, obj)
		isp.End()
		if err != nil {
			// Roll back: indexObject already unwound its partial postings;
			// restore the previous object and its postings, or erase the
			// insert entirely, so no stored-but-partially-indexed object
			// survives.
			if replaced {
				r.objects.Put(up.ObjectID, prev)
				_ = indexObject(st, up.ObjectID, prev) // best-effort reinstate
			} else {
				r.objects.Delete(up.ObjectID)
			}
			// The mutation is already in the log but was rolled back in
			// memory; log the inverse so replay converges to the same
			// rolled-back state.
			r.walCompensate(up.ObjectID, prev, replaced)
			r.gov.undoUpdate(up.Owner, newBytes, prevOwner, prevBytes, hadPrev)
			return err
		}
	}
	if replaced {
		r.countCodes(prev, -1)
		r.resident.Add(newBytes - prevBytes)
	} else {
		r.resident.Add(newBytes)
	}
	r.countCodes(obj, 1)
	r.deltaIDs[up.ObjectID] = struct{}{}
	r.met.objects.Set(int64(r.objects.Len()))
	r.met.leakUpdateTokens.Add(int64(r.leak.recordUpdate(up)))
	r.met.leakUpdateDistinct.Set(int64(r.leak.DistinctUpdateTokens()))
	return nil
}

// checkLengths holds obj's dense encodings to what the engine can compare
// them with (ErrEncodingLength): per modality, one non-zero bit length, and
// that the words' of st's codebook once there is one, otherwise the stored
// encodings' while there are any. Callers hold writeMu.
func (r *Repository) checkLengths(st *repoState, obj *storedObject) error {
	for i, eng := range st.engines {
		want := eng.codeBits()
		if want == 0 && r.codes[i].holders > 0 {
			want = r.codes[i].bits
		}
		if err := sameLength(eng.Modality(), eng.TrainingSample(obj), want); err != nil {
			return err
		}
	}
	return nil
}

// countCodes adds delta to the holder count of every modality obj carries
// encodings of. Callers hold writeMu, or own the repository outright.
func (r *Repository) countCodes(obj *storedObject, delta int) {
	for i, eng := range r.state.Load().engines {
		if encs := eng.TrainingSample(obj); len(encs) > 0 {
			r.codes[i].holders += delta
			r.codes[i].bits = encs[0].Len()
		}
	}
}

// indexObject inserts one object into the epoch's per-modality indexes.
// On failure it unwinds the postings already added for earlier modalities,
// so a partially indexed object never escapes.
func indexObject(st *repoState, id string, obj *storedObject) error {
	doc := index.DocID(id)
	for i, eng := range st.engines {
		idx := st.indexes[i]
		if idx == nil {
			continue
		}
		terms := eng.ExtractTerms(obj)
		if len(terms) == 0 {
			continue
		}
		var err error
		if updateIndexHook != nil {
			err = updateIndexHook(eng.Modality())
		}
		if err == nil {
			err = idx.Add(doc, terms)
		}
		if err != nil {
			for j := 0; j < i; j++ {
				if st.indexes[j] != nil {
					st.indexes[j].Remove(doc)
				}
			}
			return err
		}
	}
	return nil
}

// Remove deletes an object and its index entries (CLOUD.Remove,
// Algorithm 8). Unknown ids are a no-op. On a durable repository the
// removal is logged before it is applied; a WAL error leaves the object in
// place and is returned.
func (r *Repository) Remove(objectID string) error {
	return r.RemoveContext(context.Background(), objectID)
}

// RemoveContext is Remove carrying the caller's context for tracing.
func (r *Repository) RemoveContext(ctx context.Context, objectID string) error {
	_, sp := obs.StartSpan(ctx, r.met.reg, "repo/remove")
	defer sp.End()
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	st := r.state.Load()
	if _, exists := r.objects.Get(objectID); exists {
		if err := r.walAppend(sp, nil, objectID); err != nil {
			return err
		}
	}
	if prev, existed := r.objects.Delete(objectID); existed {
		st.unindex(objectID)
		r.countCodes(prev, -1)
		r.deltaIDs[objectID] = struct{}{}
		bytes := approxObjectBytes(prev)
		r.resident.Add(-bytes)
		r.gov.creditRemove(prev.owner, bytes)
	}
	r.met.objects.Set(int64(r.objects.Len()))
	r.leak.recordRemove(objectID)
	return nil
}

// walAppend logs one mutation — the update up, or the removal of id when up
// is nil — if the repository is durable. Callers hold writeMu. sp (optional)
// receives a wal_append child span.
func (r *Repository) walAppend(sp *obs.Span, up *Update, id string) error {
	if r.wal == nil {
		return nil
	}
	payload := encodeWALRecord(up, id)
	if sp != nil {
		wsp := sp.Child("wal_append")
		defer wsp.End()
	}
	if err := r.wal.Append(payload); err != nil {
		return fmt.Errorf("core: wal append for %s: %w", r.id, err)
	}
	if r.tap != nil {
		r.tap.MutationLogged(r.id, payload)
	}
	return nil
}

// walCompensate logs the inverse of a mutation that was appended but then
// rolled back in memory: the previous object (a replace) or a removal (an
// insert). Best effort — if even the compensation cannot be logged, replay
// may resurrect the rolled-back write, which the caller was told failed;
// the log is by then poisoned or the disk gone, so a louder failure is
// already on its way.
func (r *Repository) walCompensate(id string, prev *storedObject, replaced bool) {
	var up *Update
	if replaced {
		up = updateFromStored(id, prev)
	}
	// Followers replay the compensation too (walAppend taps it), converging
	// on the same rolled-back state the leader settled on.
	_ = r.walAppend(nil, up, id)
}

// updateFromStored reconstructs the Update that produced a stored object,
// for compensation records.
func updateFromStored(id string, obj *storedObject) *Update {
	return &Update{
		ObjectID:       id,
		Owner:          obj.owner,
		Ciphertext:     obj.ciphertext,
		TextTokens:     obj.textTokens,
		ImageEncodings: obj.imageEncs,
		AudioEncodings: obj.audioEncs,
	}
}

// attachWAL hands the repository its write-ahead log. Called once, after
// recovery replay, so replayed records are not re-appended.
func (r *Repository) attachWAL(l *wal.Log) {
	r.writeMu.Lock()
	r.wal = l
	r.writeMu.Unlock()
}

// Get returns the stored ciphertext and owner of an object (the read path
// of the system model). Lock-free: it goes straight to the store.
func (r *Repository) Get(objectID string) (ciphertext []byte, owner string, err error) {
	return r.GetContext(context.Background(), objectID)
}

// GetContext is Get carrying the caller's context for tracing.
func (r *Repository) GetContext(ctx context.Context, objectID string) (ciphertext []byte, owner string, err error) {
	_, sp := obs.StartSpan(ctx, r.met.reg, "repo/get")
	defer sp.End()
	obj, ok := r.objects.Get(objectID)
	if !ok {
		err = fmt.Errorf("%w: %s", ErrUnknownObject, objectID)
		sp.SetError(err)
		return nil, "", err
	}
	r.leak.recordAccess(objectID)
	r.met.leakAccessReveals.Inc()
	return obj.ciphertext, obj.owner, nil
}

// Train runs the machine-learning step in the cloud (CLOUD.Train,
// Algorithm 6) as one pipeline of five steps, the same for a first Train and
// for every later one; only what steps two and three do differs.
//
//  1. Plan, under writeMu: load the serving epoch, take deltaIDs — the ids
//     written since the last Train — aside and start a fresh set, so every
//     write from here on is recorded apart from what the run works on.
//  2. Codebooks, off-lock. On a trained repository they are warm-start
//     refined from the encodings of the taken-aside objects only (mini-batch
//     k-means seeded with the previous centroids): cost proportional to the
//     churn, not the corpus. When that is impossible (untrained, or a
//     modality has data but no codebook yet), disabled, or drifted past
//     Incremental.DriftThreshold/ReassignThreshold, flat k-means re-clusters
//     the stored Dense-DPE encodings of a sorted store snapshot — in Hamming
//     space, since that is what the encodings preserve — and a lookup tree is
//     built over the words. Sparse modalities need no training.
//  3. Indexes, off-lock: an incremental run carries the serving epoch's
//     indexes forward; a full run bulk-builds fresh ones from the snapshot.
//  4. Re-index, under writeMu: every id the run must account for is removed
//     from each index and re-added from the store as it stands now, under
//     the new codebooks — the taken-aside ids and the ones written since for
//     an incremental run, only the latter for a full one (its snapshot, taken
//     after the plan, already holds everything written before it).
//  5. Install the epoch with one atomic swap, still under writeMu, so no
//     write slips between re-index and install.
//
// Train never blocks readers or writers for its duration: a Search issued
// mid-training is served by the previous epoch throughout. A run that does
// not install — cancelled, or failed — merges the ids it took back, so the
// next Train accounts for them.
func (r *Repository) Train() error { return r.TrainContext(context.Background()) }

// TrainContext is Train with cooperative cancellation: the context is
// checked between training phases (after acquiring the train lock, between
// per-modality codebook runs, and before the epoch install), so an aborted
// run releases its partially built indexes and leaves the current epoch
// serving, untouched. It is the engine half of the wire protocol's
// deadline-aware Train.
func (r *Repository) TrainContext(ctx context.Context) error {
	_, sp := obs.StartSpan(ctx, r.met.reg, "repo/train")
	defer sp.End()
	r.trainMu.Lock()
	defer r.trainMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Step 1 — plan.
	r.writeMu.Lock()
	cur := r.state.Load()
	taken := r.deltaIDs
	r.deltaIDs = make(map[string]struct{})
	r.writeMu.Unlock()
	installed := false
	defer func() {
		if !installed {
			r.writeMu.Lock()
			r.mergeDelta(taken)
			r.writeMu.Unlock()
		}
	}()
	info := &TrainInfo{Epoch: cur.epoch + 1, Mode: "full"}

	// Step 2 — codebooks: refine from the delta where that is possible and
	// allowed. Removed objects contribute no encodings; step 4 drops their
	// postings.
	var engines []ModalityEngine
	if cur.trained && !r.opts.Incremental.Disable {
		delta := make(map[string]*storedObject, len(taken))
		for id := range taken {
			if obj, ok := r.objects.Get(id); ok {
				delta[id] = obj
			}
		}
		refined, drift, err := r.codebooks(ctx, sp, cur.engines, delta, sortedIDs(delta), true)
		if err != nil {
			return err
		}
		if refined != nil {
			r.met.driftPermille.Set(int64(drift.MeanShift * 1000))
			info.Drift = drift
			if drift.Exceeds(r.opts.Incremental.DriftThreshold, r.opts.Incremental.ReassignThreshold) {
				// The delta pulled the codebook too far from the epoch the
				// standing postings were quantized under: re-cluster.
				r.met.driftFallbacks.Inc()
				info.DriftFallback = true
			} else {
				info.Mode = "incremental"
				engines = refined
			}
		}
	}
	// Step 3 — indexes. In carried indexes the objects outside the delta keep
	// their previous-epoch quantization, which is exactly the bounded
	// staleness the drift threshold guards.
	indexes := cur.indexes
	full := engines == nil
	if full {
		// The snapshot is copied shard by shard, not at one instant; a write
		// racing the copy is in the fresh deltaIDs, and step 4 re-indexes it.
		snap := r.objects.Items()
		ids := sortedIDs(snap)
		var err error
		if engines, _, err = r.codebooks(ctx, sp, cur.engines, snap, ids, false); err != nil {
			return err
		}
		bsp := sp.Child("build_indexes")
		indexes, err = r.buildIndexes(engines, snap, ids)
		bsp.End()
		if err != nil {
			return err
		}
	}
	next := &repoState{epoch: info.Epoch, trained: true, engines: engines, indexes: indexes}
	discard := func() { // a full run that does not install drops what it built
		if full {
			closeIndexes(indexes)
		}
	}
	if hook := trainInstallHook; hook != nil {
		hook()
	}
	if err := ctx.Err(); err != nil {
		discard()
		return err
	}

	// Steps 4 and 5 — re-index and install.
	r.writeMu.Lock()
	if !full {
		r.mergeDelta(taken)
		info.DeltaDocs = len(r.deltaIDs)
	}
	rsp := sp.Child("reindex")
	err := r.reindex(next, r.deltaIDs)
	rsp.End()
	if err != nil {
		r.writeMu.Unlock()
		discard()
		return err
	}
	r.deltaIDs = make(map[string]struct{})
	r.installEpoch(next)
	installed = true
	if full {
		// Retire the previous epoch's indexes. Closing only refuses further
		// writes and compactions; in-flight searches that loaded the old
		// state keep reading its postings.
		closeIndexes(cur.indexes)
	}
	r.writeMu.Unlock()

	r.lastTrain.Store(info)
	r.leak.recordTrain(r.id)
	if full {
		r.met.trainFull.Inc()
	} else {
		r.met.trainIncremental.Inc()
		// Train as compaction policy: freeze the memtables into sealed
		// segments and let the background compactor merge. Sealing is O(1);
		// the merge is off the Train critical path.
		for _, idx := range indexes {
			if idx != nil {
				if err := idx.Seal(); err != nil {
					return err
				}
			}
		}
		r.requestCompaction()
	}
	r.updateIndexGauges()
	return nil
}

// mergeDelta returns ids a Train took aside to deltaIDs. Callers hold
// writeMu.
func (r *Repository) mergeDelta(taken map[string]struct{}) {
	for id := range taken {
		r.deltaIDs[id] = struct{}{}
	}
}

// codebooks runs step 2 of Train for every engine over objs (ids is its
// sorted key list): a warm-start refinement when refine is set, a fresh
// k-means otherwise. Engines with nothing to learn from — sparse modalities,
// dense ones with no data in objs — pass through unchanged, codebook
// included, so a later Train can pick up data that arrives. It returns nil
// engines when a refinement is impossible (data for a modality that never
// trained: only a fresh k-means can give it a codebook), and otherwise the
// new engine set with the worst drift any refinement measured.
func (r *Repository) codebooks(ctx context.Context, sp *obs.Span, cur []ModalityEngine, objs map[string]*storedObject, ids []string, refine bool) ([]ModalityEngine, cluster.DriftReport, error) {
	var worst cluster.DriftReport
	engines := make([]ModalityEngine, len(cur))
	for i, eng := range cur {
		if err := ctx.Err(); err != nil {
			return nil, worst, err
		}
		sample := trainingSample(eng, objs, ids, r.opts.TrainingSampleCap)
		if len(sample) == 0 {
			engines[i] = eng
			continue
		}
		csp := sp.Child(string(eng.Modality()) + "_codebook")
		var drift cluster.DriftReport
		var err error
		ok, verb := true, "train"
		if refine {
			verb = "refine"
			engines[i], drift, ok, err = eng.Refine(sample)
		} else {
			engines[i], err = eng.Train(sample)
		}
		csp.End()
		if err != nil {
			return nil, worst, fmt.Errorf("core: %s %s codebook: %w", verb, eng.Modality(), err)
		}
		if !ok {
			return nil, worst, nil
		}
		worst.MeanShift = max(worst.MeanShift, drift.MeanShift)
		worst.MaxShift = max(worst.MaxShift, drift.MaxShift)
		worst.ReassignedFraction = max(worst.ReassignedFraction, drift.ReassignedFraction)
	}
	return engines, worst, nil
}

// reindex is step 4 of Train, the one remove-then-re-add loop: each id is
// dropped from every index of st and, if the store still holds it, indexed
// again under st's engines. Reading the store here, under writeMu, is what an
// ordered replay of full-state records would converge to — the last write to
// an id wins, whatever came before it. Callers hold writeMu.
func (r *Repository) reindex(st *repoState, ids map[string]struct{}) error {
	for id := range ids {
		st.unindex(id)
		if obj, ok := r.objects.Get(id); ok {
			if err := indexObject(st, id, obj); err != nil {
				return fmt.Errorf("core: reindex %s: %w", id, err)
			}
		}
	}
	return nil
}

// installEpoch makes next the serving epoch: one atomic swap, then the
// replication tap is told and the codebook gauges follow. Callers hold
// writeMu.
func (r *Repository) installEpoch(next *repoState) {
	r.state.Store(next)
	if r.tap != nil {
		r.tap.EpochInstalled(r.id, next.epoch)
	}
	for _, eng := range next.engines {
		switch eng.Modality() {
		case ModalityImage:
			r.met.vocabWords.Set(int64(eng.CodebookSize()))
		case ModalityAudio:
			r.met.audioVocabWords.Set(int64(eng.CodebookSize()))
		}
	}
}

// sortedIDs returns the keys of a store copy in sorted order — the order
// every pass over one uses, so that retraining or restoring a given
// repository always yields the same codebooks and indexes.
func sortedIDs(objs map[string]*storedObject) []string {
	ids := make([]string, 0, len(objs))
	for id := range objs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// trainingSample gathers up to capN encodings for one engine from the
// snapshot, in sorted id order for determinism.
func trainingSample(eng ModalityEngine, snap map[string]*storedObject, ids []string, capN int) []vec.BitVec {
	var sample []vec.BitVec
	for _, id := range ids {
		for _, e := range eng.TrainingSample(snap[id]) {
			if len(sample) >= capN {
				return sample
			}
			sample = append(sample, e)
		}
	}
	return sample
}

// requestCompaction spawns (at most one at a time) a background goroutine
// that compacts every index of the current epoch that needs it. Wired as the
// segmented indexes' OnSeal hook and called after every incremental Train,
// so sealed segments are merged shortly after they accumulate. Safe to call
// from any goroutine; never blocks; a no-op after Close.
func (r *Repository) requestCompaction() {
	r.compactMu.Lock()
	defer r.compactMu.Unlock()
	if r.compactClosed {
		return
	}
	// Capture the test hook in the requesting goroutine: requests happen on
	// mutator/train paths, so a test installing the hook before triggering a
	// seal is ordered before this read.
	hook := compactStartHook
	if !r.compacting.CompareAndSwap(false, true) {
		// A pass is already in flight (possibly requested before this
		// request's segments were sealed). Dropping the request here would
		// leave those segments unmerged until the next seal happens to land
		// in a quiet window, so record it — hook included — and the running
		// compactor reruns once more before exiting.
		r.compactPending = true
		r.pendingHook = hook
		return
	}
	r.compactWG.Add(1)
	go func() {
		defer r.compactWG.Done()
		for {
			r.compactPass(hook)
			r.compactMu.Lock()
			if r.compactClosed || !r.compactPending {
				r.compacting.Store(false)
				r.compactMu.Unlock()
				return
			}
			r.compactPending = false
			hook = r.pendingHook
			r.pendingHook = nil
			r.compactMu.Unlock()
		}
	}()
}

// compactPass is one background-compactor sweep over the current epoch's
// indexes.
func (r *Repository) compactPass(hook func()) {
	if hook != nil {
		hook()
	}
	_, csp := obs.StartSpan(context.Background(), r.met.reg, "repo/compact")
	defer csp.End()
	st := r.state.Load()
	for _, idx := range st.indexes {
		if idx != nil && idx.NeedsCompaction() {
			idx.Compact()
			r.met.compactions.Inc()
		}
	}
	r.updateIndexGauges()
}

// CompactNow synchronously compacts every index of the current epoch,
// regardless of thresholds — the deterministic variant of the background
// compactor for tests, benchmarks and operational tooling.
func (r *Repository) CompactNow() {
	st := r.state.Load()
	for _, idx := range st.indexes {
		if idx != nil {
			idx.Compact()
			r.met.compactions.Inc()
		}
	}
	r.updateIndexGauges()
}

// IndexStats returns per-modality segment statistics for the current epoch,
// keyed by modality.
func (r *Repository) IndexStats() map[Modality]index.SegmentStats {
	st := r.state.Load()
	out := make(map[Modality]index.SegmentStats, len(st.engines))
	for i, eng := range st.engines {
		if i < len(st.indexes) && st.indexes[i] != nil {
			out[eng.Modality()] = st.indexes[i].Stats()
		}
	}
	return out
}

// updateIndexGauges refreshes the segment/memtable/garbage gauges from the
// current epoch's indexes.
func (r *Repository) updateIndexGauges() {
	st := r.state.Load()
	var segs, memDocs, dead int
	for _, idx := range st.indexes {
		if idx == nil {
			continue
		}
		s := idx.Stats()
		segs += s.SealedSegments
		memDocs += s.MemtableDocs
		dead += s.DeadDocs
	}
	r.met.indexSegments.Set(int64(segs))
	r.met.memtableDocs.Set(int64(memDocs))
	r.met.deadDocs.Set(int64(dead))
}

// buildIndexes creates one inverted index per engine and bulk-loads the
// snapshot into it. Shared between Train and snapshot restore. On error,
// indexes already built are closed.
func (r *Repository) buildIndexes(engines []ModalityEngine, snap map[string]*storedObject, ids []string) ([]*index.Segmented, error) {
	indexes := make([]*index.Segmented, len(engines))
	for i, eng := range engines {
		idx := r.newIndex()
		indexes[i] = idx
		batch := make([]index.BatchDoc, 0, len(ids))
		for _, id := range ids {
			if terms := eng.ExtractTerms(snap[id]); len(terms) > 0 {
				batch = append(batch, index.BatchDoc{Doc: index.DocID(id), Terms: terms})
			}
		}
		if err := idx.AddBatch(batch); err != nil {
			closeIndexes(indexes)
			return nil, err
		}
		// Freeze the bulk load into one sealed segment, so the epoch starts
		// with an empty memtable and post-train updates accumulate separately.
		if err := idx.Seal(); err != nil {
			closeIndexes(indexes)
			return nil, err
		}
	}
	return indexes, nil
}

// newIndex creates one modality's empty index with the repository's
// segmentation knobs, wiring auto-seal to the background compactor.
func (r *Repository) newIndex() *index.Segmented {
	return index.NewSegmented(index.SegmentedOptions{
		MemtableCap:     r.opts.Incremental.MemtableCap,
		CompactSegments: r.opts.Incremental.CompactSegments,
		OnSeal:          r.requestCompaction,
	})
}

// closeIndexes closes an epoch's indexes.
func closeIndexes(indexes []*index.Segmented) {
	for _, idx := range indexes {
		if idx != nil {
			idx.Close()
		}
	}
}

// Search answers a multimodal query (CLOUD.Search, Algorithm 9): per
// modality, either a sub-linear index lookup (after training) or a linear
// ranked scan over stored encodings (before), then logarithmic ISR rank
// fusion across modalities and truncation to the top k.
func (r *Repository) Search(q *Query) ([]SearchHit, error) {
	return r.SearchWithFusionContext(context.Background(), q, fusion.LogISR)
}

// SearchContext is Search carrying the caller's context, so the fan-out
// lookup, fusion and collect spans join the request's distributed trace.
func (r *Repository) SearchContext(ctx context.Context, q *Query) ([]SearchHit, error) {
	return r.SearchWithFusionContext(ctx, q, fusion.LogISR)
}

// SearchWithFusion is Search with an explicit rank-fusion formula; the
// default (and the paper's choice) is logarithmic ISR. Exposed for the
// fusion ablation.
//
// The per-modality lookups fan out in parallel goroutines and join before
// fusion, so the search phase costs max(modality lookups), not their sum (a
// query carrying a single modality runs its lookup inline);
// the whole path is lock-free against the repository (epoch load + store
// shard reads only) and therefore never blocks on a concurrent Train.
func (r *Repository) SearchWithFusion(q *Query, method fusion.Method) ([]SearchHit, error) {
	return r.SearchWithFusionContext(context.Background(), q, method)
}

// SearchWithFusionContext is SearchWithFusion carrying the caller's context.
func (r *Repository) SearchWithFusionContext(ctx context.Context, q *Query, method fusion.Method) ([]SearchHit, error) {
	if q.K <= 0 {
		return nil, errors.New("core: query k must be positive")
	}
	if hook := searchStartHook; hook != nil {
		hook()
	}
	_, sp := obs.StartSpan(ctx, r.met.reg, "repo/search")
	defer sp.End()
	st := r.state.Load()

	depth := r.opts.FusionCandidates
	if depth <= 0 {
		depth = 10 * q.K
	}
	var active []int // engines the query carries a modality for
	for i, eng := range st.engines {
		if eng.InQuery(q) {
			active = append(active, i)
		}
	}
	joined := make([][]index.Result, len(active))
	errs := make([]error, len(active))
	lookup := func(j int) {
		i := active[j]
		eng := st.engines[i]
		csp := sp.Child(string(eng.Modality()) + "_lookup")
		defer csp.End()
		joined[j], errs[j] = r.searchModality(st, i, eng, q, depth)
	}
	if len(active) == 1 {
		lookup(0) // nothing to overlap with: skip the goroutine and the join
	} else {
		var wg sync.WaitGroup
		for j := range active {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				lookup(j)
			}(j)
		}
		wg.Wait()
	}
	if err := errors.Join(errs...); err != nil {
		sp.SetError(err)
		return nil, err
	}
	fsp := sp.Child("fusion")
	fused := fusion.Fuse(method, joined, q.K)
	fsp.End()
	csp := sp.Child("collect")
	hits := make([]SearchHit, 0, len(fused))
	for _, res := range fused {
		obj, ok := r.objects.Get(string(res.Doc))
		if !ok {
			// Raced a remove against a not-yet-retired index entry: the hit
			// is dropped, and — deliberately — NOT recorded as an ID(d)
			// access, since nothing about it is returned to the caller.
			continue
		}
		r.leak.recordAccess(string(res.Doc))
		r.met.leakAccessReveals.Inc()
		hits = append(hits, SearchHit{
			ObjectID:   string(res.Doc),
			Owner:      obj.owner,
			Score:      res.Score,
			Ciphertext: obj.ciphertext,
		})
	}
	csp.End()
	r.met.leakSearchRepeats.Add(int64(r.leak.recordSearch(q)))
	r.met.leakSearchDistinct.Set(int64(r.leak.distinctSearchTokens()))
	return hits, nil
}

// searchModality runs one modality's lookup for the given epoch: the
// inverted index when the epoch answers the modality from it (st.indexed),
// the engine's exact linear scan otherwise.
func (r *Repository) searchModality(st *repoState, i int, eng ModalityEngine, q *Query, depth int) ([]index.Result, error) {
	if !st.indexed(i) {
		return eng.LinearSearch(q, r.objects, depth)
	}
	terms, err := eng.QueryTerms(q)
	if err != nil {
		return nil, err
	}
	return st.indexes[i].Search(terms, depth), nil
}

// Close closes the indexes and the write-ahead log. Any in-flight background
// compaction is waited out first, so no merge races the teardown.
func (r *Repository) Close() error {
	r.compactMu.Lock()
	r.compactClosed = true
	r.compactMu.Unlock()
	r.compactWG.Wait()
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	closeIndexes(r.state.Load().indexes)
	if r.wal == nil {
		return nil
	}
	err := r.wal.Close()
	r.wal = nil
	return err
}
