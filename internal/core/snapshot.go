package core

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

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
	Opts       RepositoryOptions
	Objects    []snapshotObject
	Trained    bool
	VocabWords []vec.BitVec
	AudioWords []vec.BitVec
	// IndexSegments is parallel to the engine set: per modality, the live
	// postings grouped by segment (memtable last). Nil in pre-segmented
	// snapshots.
	IndexSegments [][][]index.BatchDoc
}

// Snapshot serializes the repository's durable state to w. Safe to call
// concurrently with reads; writers are blocked for the duration so the
// object set and the trained state land as one consistent cut.
func (r *Repository) Snapshot(w io.Writer) error {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	return r.snapshotLocked(w)
}

// snapshotLocked is Snapshot with writeMu already held, so saveTo can take
// the snapshot and rotate the write-ahead log as one consistent cut.
func (r *Repository) snapshotLocked(w io.Writer) error {
	_, sp := obs.StartSpan(context.Background(), r.met.reg, "repo/snapshot")
	defer sp.End()
	st := r.state.Load()
	snap := snapshot{
		Magic:   snapshotMagic,
		ID:      r.id,
		Opts:    r.opts,
		Trained: st.trained,
	}
	// Index options carry host paths that may not apply on restore; the
	// loader re-derives them from its own options, so drop them here.
	snap.Opts.Index.SpillDir = ""
	snap.Opts.Index.ChampionSize = 0
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
			snap.IndexSegments[i] = groups
		}
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encode snapshot of %s: %w", r.id, err)
	}
	return nil
}

// ErrBadSnapshot is returned when restoring from data that is not a valid
// repository snapshot.
var ErrBadSnapshot = errors.New("core: invalid repository snapshot")

// LoadRepository restores a repository from a snapshot. The vocabulary's
// lookup tree and the inverted indexes are rebuilt; search results after a
// restore are identical to before it. Index options (champion lists, spill
// dir) may be overridden for the new host via opts.
func LoadRepository(rd io.Reader, indexOpts *RepositoryOptions) (*Repository, error) {
	var snap snapshot
	if err := gob.NewDecoder(rd).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if snap.Magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, snap.Magic)
	}
	opts := snap.Opts
	if indexOpts != nil {
		opts.Index = indexOpts.Index
	}
	r, err := NewRepository(snap.ID, opts)
	if err != nil {
		return nil, err
	}
	var resident int64
	for _, so := range snap.Objects {
		obj := &storedObject{
			owner:      so.Owner,
			ciphertext: so.Ciphertext,
			textTokens: so.TextTokens,
			imageEncs:  so.ImageEncs,
			audioEncs:  so.AudioEncs,
		}
		r.objects.Put(so.ID, obj)
		resident += approxObjectBytes(obj)
	}
	r.resident.Store(resident)
	r.met.objects.Set(int64(r.objects.Len()))
	if !snap.Trained {
		// No codebook anywhere: every dense modality is searched through its
		// candidate index, derived state that is rebuilt from the stored
		// encodings.
		r.rebuildANN()
		return r, nil
	}
	// Restore the engines' trained state from the serialized codebooks,
	// then the first trained epoch's indexes.
	cur := r.state.Load()
	engines := make([]ModalityEngine, len(cur.engines))
	for i, eng := range cur.engines {
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
	epoch := cur.epoch + 1
	var indexes []*index.Segmented
	var spillDirs []string
	if len(snap.IndexSegments) == len(engines) {
		// Segmented layout: restore the exact segment structure and postings
		// the snapshot pinned, preserving per-epoch quantization.
		indexes = make([]*index.Segmented, len(engines))
		spillDirs = make([]string, len(engines))
		for i, eng := range engines {
			iopts := r.indexOptions(string(eng.Modality()), epoch)
			idx, err := index.NewSegmented(r.segmentedOptions(iopts))
			if err != nil {
				closeIndexes(indexes, spillDirs)
				return nil, err
			}
			indexes[i] = idx
			spillDirs[i] = iopts.SpillDir
			if err := idx.LoadSegments(snap.IndexSegments[i]); err != nil {
				closeIndexes(indexes, spillDirs)
				return nil, fmt.Errorf("core: restore %s index segments: %w", eng.Modality(), err)
			}
		}
	} else {
		// Legacy layout (no serialized segments): rebuild through the same
		// bulk path Train uses.
		objs := r.objects.Items()
		var err error
		indexes, spillDirs, err = r.buildIndexes(engines, epoch, objs, sortedIDs(objs))
		if err != nil {
			return nil, err
		}
	}
	// Publish the restored epoch the way Train does. Nothing else can reach
	// the repository yet; the lock is installEpoch's contract.
	r.writeMu.Lock()
	r.installEpoch(&repoState{
		epoch:     epoch,
		trained:   true,
		engines:   engines,
		indexes:   indexes,
		spillDirs: spillDirs,
	})
	r.writeMu.Unlock()
	r.updateIndexGauges()
	// Last, with the engines restored: candidate indexes for the modalities
	// that still have no codebook, and only those.
	r.rebuildANN()
	return r, nil
}

// saveTo writes the repository's snapshot into dir — write to temp, fsync
// the file, rename over the target, fsync the directory — and then rotates
// the repository's write-ahead log empty. The whole sequence runs under
// writeMu, so the snapshot and the log rotation are one consistent cut: no
// mutation can land between "folded into the snapshot" and "dropped from
// the log". The log is only rotated after the snapshot is durable on disk;
// if the process dies in between, replaying the (now stale) log over the
// newer snapshot converges, because records carry full object state and
// replay preserves their order.
func (r *Repository) saveTo(dir string) error {
	path := filepath.Join(dir, snapshotFileName(r.id))
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("core: temp snapshot: %w", err)
	}
	abort := func() { _ = tmp.Close(); _ = os.Remove(tmp.Name()) }
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if err := r.snapshotLocked(tmp); err != nil {
		abort()
		return err
	}
	// fsync before rename: the rename must never expose a snapshot whose
	// bytes could still be lost to a power cut.
	if err := tmp.Sync(); err != nil {
		abort()
		return fmt.Errorf("core: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("core: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("core: commit snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if r.wal != nil {
		if err := r.wal.Reset(); err != nil {
			return fmt.Errorf("core: rotate wal of %s: %w", r.id, err)
		}
	}
	return nil
}

// repoFileStem escapes a repository id into a safe file-name stem, shared
// by the snapshot and WAL naming so the two always sit side by side.
func repoFileStem(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
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
