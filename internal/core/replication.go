package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"mie/internal/wal"
)

// ReplicationTap observes a service's durable mutation stream so a
// replication layer (internal/replica) can ship acknowledged WAL records to
// follower nodes. Every callback fires on the mutating goroutine with the
// repository's write lock held — implementations must be fast and must not
// call back into the repository.
//
// MutationLogged delivers the exact payload that was appended to the
// write-ahead log, after the append succeeded — a kind byte plus the wire's
// update or remove body (durable.go), nothing replication-specific: the
// stream of MutationLogged calls for one repository is byte-identical to
// its durable log, in order, so a follower that applies them through the
// recovery function converges on the leader's state and on the same log.
type ReplicationTap interface {
	// RepoCreated fires when a repository enters the catalog (creation, or
	// existing repositories at SetReplicationTap time).
	RepoCreated(id string, opts RepositoryOptions)
	// RepoDropped fires when a repository leaves the catalog.
	RepoDropped(id string)
	// MutationLogged fires after one WAL record was durably appended.
	MutationLogged(repoID string, payload []byte)
	// EpochInstalled fires after a Train installed a new epoch. Trained
	// state (codebooks, re-quantized postings) is not in the WAL, so the
	// replication layer must re-transfer a snapshot past this point.
	EpochInstalled(repoID string, epoch uint64)
}

// SetReplicationTap attaches tap to the service and to every repository it
// currently hosts, replaying the existing catalog through RepoCreated so
// the tap discovers repositories that predate it. Call it once, before the
// service starts serving requests; passing nil is a no-op.
func (s *Service) SetReplicationTap(tap ReplicationTap) {
	if tap == nil {
		return
	}
	s.tap = tap
	for _, id := range s.Repositories() {
		repo, release, err := s.Acquire(id)
		if err != nil {
			continue // dropped concurrently
		}
		repo.setTap(tap)
		tap.RepoCreated(id, repo.Options())
		release()
	}
}

// Durable reports whether the service persists to disk. Followers require a
// durable service: replicated records are re-appended to the follower's own
// WAL, so its acknowledged cursor survives restarts.
func (s *Service) Durable() bool { return s.durable != nil }

// setTap hands the repository its service's replication tap. Like
// setGovernor it is called before the repository serves requests; mutators
// read it under writeMu.
func (r *Repository) setTap(tap ReplicationTap) {
	r.writeMu.Lock()
	r.tap = tap
	r.writeMu.Unlock()
}

// SnapshotBytes serializes the repository's durable state and, while the
// write lock is still held, invokes cut — the replication layer's chance to
// capture the stream cursor that corresponds exactly to the image: every
// mutation below the cursor is inside it, every mutation at or above it is
// not. That atomicity is what lets a follower resume the record stream from
// the snapshot's cursor without loss or double-apply.
func (r *Repository) SnapshotBytes(cut func()) ([]byte, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if cut != nil {
		cut()
	}
	var buf bytes.Buffer
	if err := r.snapshotLocked(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ApplyReplicated applies one replicated WAL record through the function
// recovery replay uses. Duplicate delivery is harmless — an update overwrites
// with identical state, removing a removed object is a no-op — which is the
// at-least-once semantics a resumed stream needs. A durable follower's
// mutation re-appends the record to its own WAL byte for byte. Anything but
// a current-format record, the gob records of an un-upgraded leader
// included, is ErrBadWALRecord.
func (r *Repository) ApplyReplicated(payload []byte) error {
	return r.apply(payload)
}

// InstallSnapshot replaces the repository id with the given snapshot image —
// the follower half of a replication state transfer (initial sync, resumed
// cursor past the leader's buffer, or a new epoch after a train install).
// The image is validated by loading it before anything is torn down; the
// on-disk snapshot is replaced atomically and the repository's WAL reset, so
// a follower crash at any point recovers either the old state or the new.
// Concurrent readers of the previous incarnation finish against its epoch;
// new Acquires see the installed state. The entry is claimed through the
// same single-flight latch activation uses, so an in-flight activation and
// an install never interleave.
func (s *Service) InstallSnapshot(id string, image []byte) error {
	if s.durable == nil {
		return fmt.Errorf("core: install snapshot of %s: service is not durable", id)
	}
	repo, err := LoadRepository(bytes.NewReader(image), s.repoOpts)
	if err != nil {
		return fmt.Errorf("core: install snapshot of %s: %w", id, err)
	}
	if repo.ID() != id {
		_ = repo.Close()
		return fmt.Errorf("core: install snapshot of %s: image holds repository %q", id, repo.ID())
	}

	// Claim the entry: create it if unknown (a snapshot can precede the
	// catalog create on a resumed stream), wait out any in-flight
	// activation, then hold the loading latch for the span of the install.
	var e *repoEntry
	for {
		s.mu.Lock()
		e = s.entries[id]
		if e == nil {
			e = &repoEntry{id: id}
			s.entries[id] = e
			s.repoGauge.Set(int64(len(s.entries)))
		}
		s.mu.Unlock()
		e.mu.Lock()
		if e.dropped {
			// Dropped concurrently and already out of the catalog; retry
			// against a fresh entry.
			e.mu.Unlock()
			continue
		}
		if ch := e.loading; ch != nil {
			e.mu.Unlock()
			<-ch
			continue
		}
		break
	}
	ch := make(chan struct{})
	e.loading = ch
	old := e.repo
	e.repo = nil
	e.mu.Unlock()
	if old != nil {
		s.gov.removeRepo(old)
		_ = old.Close()
		s.markInactive(e)
	}

	err = s.durable.installImage(id, image, repo)

	e.mu.Lock()
	e.loading = nil
	dropped := e.dropped
	if err == nil && !dropped {
		e.repo = repo
		e.lastUsed = s.clock.Add(1)
	}
	e.mu.Unlock()
	close(ch)
	if err != nil {
		_ = repo.Close()
		return fmt.Errorf("core: install snapshot of %s: %w", id, err)
	}
	if dropped {
		_ = repo.Close()
		return fmt.Errorf("%w: %s", ErrRepoNotFound, id)
	}
	repo.setGovernor(s.gov)
	if s.tap != nil {
		repo.setTap(s.tap)
	}
	s.gov.addRepo(repo)
	s.markActive(e)
	s.maybeEvict(e)
	return nil
}

// installImage writes the snapshot image durably (tmp + fsync + rename, the
// same discipline saveTo uses), resets the repository's WAL — the image is
// the consistent cut; everything in the old log is inside it — and attaches
// the fresh log to repo so subsequent mutations (replicated applies) append.
func (d *durability) installImage(id string, image []byte, repo *Repository) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return fmt.Errorf("core: create data dir: %w", err)
	}
	path := filepath.Join(d.dir, snapshotFileName(id))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(image)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := syncDir(d.dir); err != nil {
		return err
	}
	l, _, err := wal.Open(filepath.Join(d.dir, walFileName(id)), d.opts, nil)
	if err != nil {
		return err
	}
	if err := l.Reset(); err != nil {
		_ = l.Close()
		return err
	}
	repo.attachWAL(l)
	return nil
}

// SetWALFileOpenerForTest overrides how WAL backing files are opened — the
// seam fault-injection tests (internal/wal/walfault) use to script crashes
// on a real service. It applies to services opened after the call; pass nil
// to restore real files. Never call it in production code.
func SetWALFileOpenerForTest(open func(path string) (wal.File, error)) {
	walFileOpener = open
}
