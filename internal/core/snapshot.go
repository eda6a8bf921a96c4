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
// lookup tree and the inverted indexes are rebuilt; search results and
// Options after a restore are identical to before it.
func LoadRepository(rd io.Reader) (*Repository, error) {
	var snap snapshot
	if err := gob.NewDecoder(rd).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if snap.Magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, snap.Magic)
	}
	r, err := NewRepository(snap.ID, snap.Opts)
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
		r.countCodes(obj, 1)
		resident += approxObjectBytes(obj)
	}
	r.resident.Store(resident)
	r.met.objects.Set(int64(r.objects.Len()))
	if !snap.Trained {
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
	var indexes []*index.Segmented
	if len(snap.IndexSegments) == len(engines) {
		// Segmented layout: restore the exact segment structure and postings
		// the snapshot pinned, preserving per-epoch quantization.
		indexes = make([]*index.Segmented, len(engines))
		for i, eng := range engines {
			indexes[i] = r.newIndex()
			if err := indexes[i].LoadSegments(snap.IndexSegments[i]); err != nil {
				closeIndexes(indexes)
				return nil, fmt.Errorf("core: restore %s index segments: %w", eng.Modality(), err)
			}
		}
	} else {
		// Legacy layout (no serialized segments): rebuild through the same
		// bulk path Train uses.
		objs := r.objects.Items()
		var err error
		if indexes, err = r.buildIndexes(engines, objs, sortedIDs(objs)); err != nil {
			return nil, err
		}
	}
	// Publish the restored epoch the way Train does. Nothing else can reach
	// the repository yet; the lock is installEpoch's contract.
	r.writeMu.Lock()
	r.installEpoch(&repoState{
		epoch:   cur.epoch + 1,
		trained: true,
		engines: engines,
		indexes: indexes,
	})
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
