package core

import (
	"context"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"unicode/utf16"

	"mie/internal/cluster"
	"mie/internal/dpe"
	"mie/internal/index"
	"mie/internal/obs"
	"mie/internal/vec"
)

// snapshotMagic guards against loading unrelated files as repositories.
const snapshotMagic = "MIE-REPO-SNAPSHOT-v1"

// snapshotObject is the serialized form of one stored object.
type snapshotObject struct {
	ID         string
	Owner      string
	Ciphertext []byte
	TextTokens map[dpe.Token]uint64
	ImageEncs  []vec.BitVec
	AudioEncs  []vec.BitVec
}

// snapshot is the on-disk form of a Repository. Early versions did not
// serialize the inverted indexes — they were derived state, rebuilt from the
// stored encodings and vocabulary at load time. With incremental training
// that stopped being true: objects not touched since an incremental Train
// keep the quantization of the epoch that indexed them, so a rebuild under
// the current codebook could shift rankings. IndexSegments therefore pins
// the live postings of every segment (gob encodes a nil slice as absent, so
// old snapshots still decode; the loader falls back to the legacy rebuild
// when the field is missing).
type snapshot struct {
	Magic      string
	ID         string
	Opts       snapshotOptions
	Objects    []snapshotObject
	Trained    bool
	VocabWords []vec.BitVec
	AudioWords []vec.BitVec
	// IndexSegments is parallel to the engine set: per modality, the live
	// postings grouped by segment (memtable last). Nil in pre-segmented
	// snapshots.
	IndexSegments [][][]index.BatchDoc
}

// snapshotOptions is the on-disk form of RepositoryOptions, under the field
// names images have always used (gob matches fields by name): Vocab is the
// codebook shape, with TreeSeed written into both of its seeds. Older images
// also hold Modalities, Incremental and ANN fields, which gob skips, and may
// hold two different seeds; Vocab.Tree.Seed is the one read back, because
// restore rebuilds the lookup tree from it.
type snapshotOptions struct {
	Vocab             cluster.VocabParams
	TrainingSampleCap int
	FusionCandidates  int
}

func (o snapshotOptions) options() RepositoryOptions {
	return RepositoryOptions{
		VocabWords:        o.Vocab.Words,
		VocabMaxIter:      o.Vocab.MaxIter,
		TreeBranch:        o.Vocab.Tree.Branch,
		TreeHeight:        o.Vocab.Tree.Height,
		TreeSeed:          o.Vocab.Tree.Seed,
		TrainingSampleCap: o.TrainingSampleCap,
		FusionCandidates:  o.FusionCandidates,
	}
}

// snapshotLocked serializes the repository's durable state to w. Its caller
// holds writeMu, so the object set and the trained state land as one
// consistent cut (and saveTo can rotate the write-ahead log in the same cut).
func (r *Repository) snapshotLocked(w io.Writer) error {
	_, sp := obs.StartSpan(context.Background(), r.met.reg, "repo/snapshot")
	defer sp.End()
	st := r.state.Load()
	snap := snapshot{
		Magic:   snapshotMagic,
		ID:      r.id,
		Opts:    snapshotOptions{r.opts.vocab(), r.opts.TrainingSampleCap, r.opts.FusionCandidates},
		Trained: st.trained,
	}
	r.objects.Range(func(id string, obj *storedObject) bool {
		snap.Objects = append(snap.Objects, snapshotObject{
			ID:         id,
			Owner:      obj.owner,
			Ciphertext: obj.ciphertext,
			TextTokens: obj.textTokens,
			ImageEncs:  obj.imageEncs,
			AudioEncs:  obj.audioEncs,
		})
		return true
	})
	for _, eng := range st.engines {
		switch eng.Modality() {
		case ModalityImage:
			snap.VocabWords = eng.SnapshotState()
		case ModalityAudio:
			snap.AudioWords = eng.SnapshotState()
		}
	}
	if st.trained {
		snap.IndexSegments = make([][][]index.BatchDoc, len(st.indexes))
		for i, idx := range st.indexes {
			if idx == nil {
				continue
			}
			groups, err := idx.SegmentBatches()
			if err != nil {
				return fmt.Errorf("core: snapshot %s index segments: %w", r.id, err)
			}
			if st.engines[i].Modality() == ModalityText {
				hexTextTerms(groups)
			}
			snap.IndexSegments[i] = groups
		}
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encode snapshot of %s: %w", r.id, err)
	}
	return nil
}

// The text index keys a term by its token's 32 raw bytes, and a snapshot
// holds the 64 hex digits dpe.Token.String spells it in, the form images have
// always had: hexTextTerms and rawTextTerms convert the text index's
// SegmentBatches at that boundary, in place, and nowhere else. Hex keeps byte
// order, so both forms sort the same.
func hexTextTerms(groups [][]index.BatchDoc) {
	for _, group := range groups {
		for i, d := range group {
			terms := make(map[index.Term]uint64, len(d.Terms))
			for term, tf := range d.Terms {
				terms[index.Term(hex.EncodeToString([]byte(term)))] = tf
			}
			group[i].Terms = terms
		}
	}
}

// rawTextTerms reverses hexTextTerms. A term that is not 64 hex digits names
// no token, and is refused.
func rawTextTerms(groups [][]index.BatchDoc) error {
	var tok dpe.Token
	for _, group := range groups {
		for i, d := range group {
			terms := make(map[index.Term]uint64, len(d.Terms))
			for term, tf := range d.Terms {
				if len(term) != hex.EncodedLen(len(tok)) {
					return fmt.Errorf("object %q: a %d-byte text term, not %d hex digits", d.Doc, len(term), hex.EncodedLen(len(tok)))
				}
				if _, err := hex.Decode(tok[:], []byte(term)); err != nil {
					return fmt.Errorf("object %q: text term %q: %w", d.Doc, term, err)
				}
				terms[index.Term(tok[:])] = tf
			}
			group[i].Terms = terms
		}
	}
	return nil
}

// ErrBadSnapshot is returned when restoring from data that is not a valid
// repository snapshot.
var ErrBadSnapshot = errors.New("core: invalid repository snapshot")

// LoadRepository restores a repository from a snapshot. The vocabulary's
// lookup tree and the inverted indexes are rebuilt; search results and
// Options after a restore are identical to before it. Every object is held
// to the checks Update makes before it logs — an id, and encodings the
// engines can compare — so a snapshot that smuggles in what Update would
// have refused fails with ErrBadSnapshot instead of breaking every later
// Train.
func LoadRepository(rd io.Reader) (*Repository, error) {
	var snap snapshot
	if err := gob.NewDecoder(rd).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if snap.Magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, snap.Magic)
	}
	r, err := NewRepository(snap.ID, snap.Opts.options())
	if err != nil {
		return nil, err
	}
	st := r.state.Load()
	if snap.Trained {
		// Restore the engines' trained state from the serialized codebooks
		// first, so the objects are checked against them.
		engines := make([]ModalityEngine, len(st.engines))
		for i, eng := range st.engines {
			var words []vec.BitVec
			switch eng.Modality() {
			case ModalityImage:
				words = snap.VocabWords
			case ModalityAudio:
				words = snap.AudioWords
			}
			restored, err := eng.Restore(words)
			if err != nil {
				return nil, fmt.Errorf("core: restore %s vocabulary: %w", eng.Modality(), err)
			}
			engines[i] = restored
		}
		st = &repoState{epoch: st.epoch + 1, trained: true, engines: engines}
	}
	var resident int64
	for _, so := range snap.Objects {
		if so.ID == "" {
			return nil, fmt.Errorf("%w: an object without an id", ErrBadSnapshot)
		}
		obj := &storedObject{
			owner:      so.Owner,
			ciphertext: so.Ciphertext,
			textTokens: so.TextTokens,
			imageEncs:  so.ImageEncs,
			audioEncs:  so.AudioEncs,
		}
		if err := r.checkLengths(st, obj); err != nil {
			return nil, fmt.Errorf("%w: object %q: %w", ErrBadSnapshot, so.ID, err)
		}
		if _, dup := r.objects.Put(so.ID, obj); dup {
			return nil, fmt.Errorf("%w: object %q stored twice", ErrBadSnapshot, so.ID)
		}
		r.countCodes(obj, 1)
		resident += approxObjectBytes(obj)
	}
	r.resident.Store(resident)
	r.met.objects.Set(int64(r.objects.Len()))
	if !snap.Trained {
		return r, nil
	}
	if len(snap.IndexSegments) == len(st.engines) {
		// Segmented layout: restore the exact segment structure and postings
		// the snapshot pinned, preserving per-epoch quantization.
		for i, segs := range snap.IndexSegments {
			for _, group := range segs {
				for _, d := range group {
					if d.Doc == "" {
						return nil, fmt.Errorf("%w: an index posting without a document id", ErrBadSnapshot)
					}
				}
			}
			if st.engines[i].Modality() == ModalityText {
				if err := rawTextTerms(segs); err != nil {
					return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
				}
			}
		}
		st.indexes = make([]*index.Segmented, len(st.engines))
		for i, eng := range st.engines {
			st.indexes[i] = r.newIndex()
			if err := st.indexes[i].LoadSegments(snap.IndexSegments[i]); err != nil {
				closeIndexes(st.indexes)
				return nil, fmt.Errorf("core: restore %s index segments: %w", eng.Modality(), err)
			}
		}
	} else {
		// Legacy layout (no serialized segments): rebuild through the same
		// bulk path Train uses.
		objs := r.objects.Items()
		st.indexes = r.buildIndexes(st.engines, objs, sortedIDs(objs))
	}
	// Publish the restored epoch the way Train does. Nothing else can reach
	// the repository yet; the lock is installEpoch's contract.
	r.writeMu.Lock()
	r.installEpoch(st)
	r.writeMu.Unlock()
	r.updateIndexGauges()
	return r, nil
}

// saveTo writes the repository's snapshot into dir (writeImage) and then
// rotates the repository's write-ahead log empty. The whole sequence runs
// under writeMu, so the snapshot and the log rotation are one consistent
// cut: no mutation can land between "folded into the snapshot" and "dropped
// from the log". The log is only rotated after the snapshot is durable on
// disk; if the process dies in between, replaying the (now stale) log over
// the newer snapshot converges, because records carry full object state and
// replay preserves their order.
func (r *Repository) saveTo(dir string) error {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if err := writeImage(dir, snapshotFileName(r.id), r.snapshotLocked); err != nil {
		return err
	}
	if r.wal != nil {
		if err := r.wal.Reset(); err != nil {
			return fmt.Errorf("core: rotate wal of %s: %w", r.id, err)
		}
	}
	return nil
}

// writeImage is the one snapshot-file writer: write fills a temp file in
// dir, which is fsynced, renamed over name and made durable by an fsync of
// the directory. fsync comes before the rename, so the rename never exposes
// bytes a power cut could still take. The temp name matches ".snap-*",
// which openDir sweeps if a crash leaves one behind.
func writeImage(dir, name string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("core: temp snapshot: %w", err)
	}
	if err = write(tmp); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("core: write snapshot %s: %w", name, err)
	}
	return syncDir(dir)
}

// repoFileStem escapes a repository id into a safe file-name stem, shared
// by the snapshot and WAL naming so the two always sit side by side. Every
// escape is '%' and exactly four hex digits: a rune above U+FFFF is written
// as its UTF-16 surrogate pair, so two ids never share a stem. Ids are valid
// UTF-8 (lookup refuses any other).
func repoFileStem(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r > 0xFFFF:
			hi, lo := utf16.EncodeRune(r)
			fmt.Fprintf(&b, "%%%04x%%%04x", hi, lo)
		default:
			fmt.Fprintf(&b, "%%%04x", r)
		}
	}
	return b.String()
}

// snapshotFileName escapes a repository id into its snapshot file name.
func snapshotFileName(id string) string {
	return repoFileStem(id) + ".snap"
}
