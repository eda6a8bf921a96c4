package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mie/internal/bin"
	"mie/internal/obs"
	"mie/internal/wal"
)

// DurableOptions configures a service's snapshot+WAL persistence: each
// hosted repository gets one snapshot file plus one write-ahead log in Dir.
// Every acknowledged Update/Remove is appended to the log before the caller
// sees success; a periodic snapshot folds the log back into the snapshot
// and rotates it empty. Startup is the inverse: load snapshot, replay log.
type DurableOptions struct {
	// Dir is the data directory (snapshots and logs side by side).
	Dir string
	// Sync is the WAL fsync policy; the zero value is wal.SyncAlways, under
	// which every acknowledged mutation survives kill -9 and power loss.
	Sync wal.SyncPolicy
	// SyncInterval bounds the loss window under wal.SyncInterval; 0 means
	// the wal package default (100ms).
	SyncInterval time.Duration
}

// RecoveryReport summarizes what OpenService reconstructed.
type RecoveryReport struct {
	// Repositories successfully restored (snapshot loaded, WAL replayed).
	Repositories int
	// ColdRepositories were discovered on disk but, under LazyActivation,
	// registered cold rather than loaded; they activate on first touch.
	ColdRepositories int
	// ReplayedRecords is the total number of WAL mutations applied on top
	// of snapshots.
	ReplayedRecords int
	// ReplayedBytes is the payload volume of those mutations.
	ReplayedBytes int64
	// TornBytes is how much torn or corrupt WAL tail was discarded — the
	// footprint of dying mid-write, cut off rather than erred on.
	TornBytes int64
	// OrphansRemoved counts dead files cleaned up (a .wal with no snapshot:
	// a creation or drop that crashed halfway).
	OrphansRemoved int
}

// walMetrics: the persistence counters of the process registry.
var (
	walAppendsC  = obs.Default().Counter("wal_appends")
	walFsyncsC   = obs.Default().Counter("wal_fsyncs")
	walBytesC    = obs.Default().Counter("wal_bytes")
	walReplayedC = obs.Default().Counter("recovery_replayed_records")
)

// walObserver feeds the process registry from the log's event hooks.
type walObserver struct{}

func (walObserver) Appended(n int) { walAppendsC.Inc(); walBytesC.Add(int64(n)) }
func (walObserver) Synced()        { walFsyncsC.Inc() }

// walFileOpener (nil outside tests) overrides how WAL backing files are
// opened, so fault-injection tests can substitute scripted walfault files
// for the real disk. Never set in production code.
var walFileOpener func(path string) (wal.File, error)

// durability is a service's persistence configuration.
type durability struct {
	dir  string
	opts wal.Options
}

func newDurability(o DurableOptions) *durability {
	wo := wal.Options{
		Sync:         o.Sync,
		SyncInterval: o.SyncInterval,
		Observer:     walObserver{},
		OpenFile:     walFileOpener, // nil outside tests = real files
	}
	return &durability{dir: o.Dir, opts: wo}
}

// A WAL record is one acknowledged mutation: a kind byte, then the body the
// wire protocol already defines for that mutation — Update.AppendTo for an
// update, the length-prefixed object id for a removal. A record is therefore
// byte-for-byte an UpdateReq / RemoveReq frame body after its RepoID field,
// and the same bytes are the replication payload (DESIGN.md §9). Every
// record decodes on its own.
//
// The kind bytes come from 0x80–0xF7, the one range a gob stream cannot
// start with: gob opens every message with its length as a gob uint, which
// is either the value itself (0x00–0x7F) or a negated byte count
// (0xF8–0xFF). The first byte therefore tells a record apart from the gob
// records earlier commits wrote (wal_legacy.go).
const (
	walUpdate byte = 0xA1
	walRemove byte = 0xA2
)

// ErrBadWALRecord reports a record that passed the log's checksum (or the
// replication stream's) but is not a well-formed mutation: unknown kind,
// truncated or trailing bytes, empty object id. It is never a torn tail;
// recovery stops and the repository stays down.
var ErrBadWALRecord = errors.New("core: bad WAL record")

// encodeWALRecord encodes the update up, or the removal of id when up is
// nil.
func encodeWALRecord(up *Update, id string) []byte {
	// Sized exactly: the record outlives this call (the replication hub
	// buffers it), so spare capacity would be retained, not reused.
	if up == nil {
		return bin.AppendString(append(make([]byte, 0, 1+bin.BytesLen(len(id))), walRemove), id)
	}
	return up.AppendTo(append(make([]byte, 0, 1+up.EncodedSize()), walUpdate))
}

// decodeWALRecord reverses encodeWALRecord; id is always the object the
// record is about. Nothing is allocated beyond a small multiple of len(b),
// and only the canonical encoding is accepted, so re-encoding the result
// reproduces b.
func decodeWALRecord(b []byte) (up *Update, id string, err error) {
	if len(b) == 0 {
		return nil, "", fmt.Errorf("%w: empty", ErrBadWALRecord)
	}
	c := bin.NewCursor(b[1:])
	switch b[0] {
	case walUpdate:
		up = new(Update)
		up.ConsumeFrom(c)
		id = up.ObjectID
	case walRemove:
		id = c.String()
	default: // a gob record of the old format lands here too: only recovery reads those
		return nil, "", fmt.Errorf("%w: unknown kind %#x", ErrBadWALRecord, b[0])
	}
	if err := c.Done(); err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrBadWALRecord, err)
	}
	if id == "" {
		return nil, "", fmt.Errorf("%w: empty object id", ErrBadWALRecord)
	}
	return up, id, nil
}

// apply decodes one record and applies it through the public mutation path:
// the one function behind recovery replay (the log is attached only
// afterwards, so replay does not re-append what it reads) and follower apply.
func (r *Repository) apply(payload []byte) error {
	up, id, err := decodeWALRecord(payload)
	if err != nil {
		return err
	}
	if up != nil {
		return r.Update(up)
	}
	return r.Remove(id)
}

// initRepo makes a freshly created repository durable from birth: it opens
// the repository's (empty) log and writes an initial snapshot, so a restart
// before the first periodic snapshot still knows the repository exists and
// has a snapshot to replay the WAL onto.
func (d *durability) initRepo(r *Repository) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return fmt.Errorf("core: create data dir: %w", err)
	}
	l, _, err := wal.Open(filepath.Join(d.dir, walFileName(r.ID())), d.opts, nil)
	if err != nil {
		return err
	}
	// A pre-existing log at this path belongs to a previous incarnation (a
	// drop that crashed before deleting it); the new repository starts empty.
	if err := l.Reset(); err != nil {
		_ = l.Close()
		return err
	}
	r.attachWAL(l)
	if err := r.saveTo(d.dir); err != nil {
		_ = l.Close()
		return err
	}
	return nil
}

// removeRepoFiles deletes a dropped repository's on-disk state. The
// snapshot goes first: if the process dies between the two removals, what
// remains is an orphaned .wal (cleaned up on the next load or save), never
// a resurrectable snapshot.
func (d *durability) removeRepoFiles(id string) error {
	if err := os.Remove(filepath.Join(d.dir, snapshotFileName(id))); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: remove snapshot of %s: %w", id, err)
	}
	if err := os.Remove(filepath.Join(d.dir, walFileName(id))); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: remove wal of %s: %w", id, err)
	}
	return nil
}

// walReplay is what replaying one repository's log recovered.
type walReplay struct {
	Records int
	Bytes   int64
	Torn    int64
}

// loadRepo restores one repository from its on-disk image: snapshot load,
// WAL replay on top (remove-then-add, so replaying a record twice converges),
// then the log stays attached so new mutations keep appending. It is the shared path of eager recovery and cold activation.
func (d *durability) loadRepo(sp *obs.Span, id string, indexOpts *RepositoryOptions) (*Repository, walReplay, error) {
	var st walReplay
	repo, err := loadSnapshotFile(sp, filepath.Join(d.dir, snapshotFileName(id)), indexOpts)
	if err != nil {
		return nil, st, err
	}
	if repo.ID() != id {
		_ = repo.Close()
		return nil, st, fmt.Errorf("core: snapshot %s holds repository %q", snapshotFileName(id), repo.ID())
	}
	wsp := sp.Child("wal_replay")
	l, rec, err := wal.Open(filepath.Join(d.dir, walFileName(id)), d.opts, func(b []byte) error {
		st.Records++
		st.Bytes += int64(len(b))
		if err := repo.apply(b); err != nil {
			return fmt.Errorf("record %d: %w", st.Records, err)
		}
		return nil
	})
	wsp.End()
	if err != nil {
		// A log that opens but cannot replay leaves the repository in a
		// half-recovered state; keep it down and surface the error.
		_ = repo.Close()
		return nil, st, fmt.Errorf("%s: %w", walFileName(id), err)
	}
	repo.attachWAL(l)
	walReplayedC.Add(int64(rec.Records))
	st.Torn = rec.DroppedBytes
	return repo, st, nil
}

// openDir populates a durable service from its data directory: every
// snapshot is restored — or, under LazyActivation, registered cold — and
// orphaned logs are pruned. Files that fail to load are reported together
// and their stems remembered (Service.unloaded), so no later sweep or create
// touches them; valid repositories still come up (partial availability beats
// none after a crash). A fresh or missing directory yields an empty — but
// durable — service.
func (s *Service) openDir() (*RecoveryReport, error) {
	d := s.durable
	report := &RecoveryReport{}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create data dir: %w", err)
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("core: read data dir: %w", err)
	}
	_, sp := obs.StartSpan(context.Background(), obs.Default(), "service/recovery")
	defer sp.End()
	var loadErrs []error
	failed := func(stem string, err error) {
		loadErrs = append(loadErrs, fmt.Errorf("%s.snap: %w", stem, err))
		if s.unloaded == nil {
			s.unloaded = make(map[string]bool)
		}
		s.unloaded[stem] = true
	}
	snapStems := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		stem := strings.TrimSuffix(e.Name(), ".snap")
		snapStems[stem] = true
		id, err := repoIDFromStem(stem)
		if err != nil {
			failed(stem, err)
			continue
		}
		if s.lazy {
			// Discover, don't load: the entry starts cold and activates on
			// first Acquire.
			s.mu.Lock()
			s.entries[id] = &repoEntry{id: id}
			s.repoGauge.Set(int64(len(s.entries)))
			s.mu.Unlock()
			report.ColdRepositories++
			continue
		}
		repo, rec, err := d.loadRepo(sp, id, s.repoOpts)
		if err != nil {
			failed(stem, err)
			continue
		}
		repo.setGovernor(s.gov)
		if s.tap != nil {
			repo.setTap(s.tap)
		}
		s.gov.addRepo(repo)
		report.Repositories++
		report.ReplayedRecords += rec.Records
		report.ReplayedBytes += rec.Bytes
		report.TornBytes += rec.Torn
		entry := &repoEntry{id: id, repo: repo, lastUsed: s.clock.Add(1)}
		s.mu.Lock()
		s.entries[id] = entry
		s.repoGauge.Set(int64(len(s.entries)))
		s.mu.Unlock()
		s.markActive(entry)
	}
	// A .wal with no snapshot is dead: either a creation that crashed before
	// its initial snapshot (never acknowledged) or a drop that crashed
	// between deleting the snapshot and the log.
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") || snapStems[strings.TrimSuffix(e.Name(), ".wal")] {
			continue
		}
		if err := os.Remove(filepath.Join(d.dir, e.Name())); err == nil {
			report.OrphansRemoved++
		}
	}
	if len(loadErrs) > 0 {
		return report, fmt.Errorf("core: %d snapshot(s) failed to load: %w", len(loadErrs), errors.Join(loadErrs...))
	}
	return report, nil
}

// loadSnapshotFile restores one repository from its snapshot file.
func loadSnapshotFile(sp *obs.Span, path string, indexOpts *RepositoryOptions) (*Repository, error) {
	ssp := sp.Child("snapshot_load")
	defer ssp.End()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	repo, err := LoadRepository(f, indexOpts)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return repo, err
}

// SaveService writes every *active* repository hosted by the service into
// dir, one snapshot file per repository, each replaced atomically and
// fsynced through to the directory entry, with the repository's WAL rotated
// empty in the same consistent cut. Cold repositories need no save — their
// on-disk snapshot+WAL image is already their only state. Snapshot and log
// files belonging to repositories the service no longer hosts (cold or
// active) are removed — without that, a repository dropped at runtime would
// resurrect from its stale snapshot on the next restart.
func SaveService(s *Service, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: create snapshot dir: %w", err)
	}
	for _, e := range s.activeEntries() {
		// Pin the repository for the span of its save so eviction (which
		// would close the WAL mid-rotation) cannot race it.
		repo, release, err := s.Acquire(e.id)
		if err != nil {
			continue // dropped concurrently
		}
		err = repo.saveTo(dir)
		release()
		if err != nil {
			return err
		}
	}
	return pruneOrphanFiles(s, dir)
}

// pruneOrphanFiles removes .snap and .wal files with no hosted repository —
// except those of a repository that failed to load, which is not hosted but
// is no orphan either. It holds the service lock so the scan is atomic
// against a concurrent durable CreateRepository writing its initial snapshot.
func pruneOrphanFiles(s *Service, dir string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keep := make(map[string]bool, 2*(len(s.entries)+len(s.unloaded)))
	for id := range s.entries {
		keep[snapshotFileName(id)] = true
		keep[walFileName(id)] = true
	}
	for stem := range s.unloaded {
		keep[stem+".snap"] = true
		keep[stem+".wal"] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("core: read snapshot dir: %w", err)
	}
	removed := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || keep[name] {
			continue
		}
		if !strings.HasSuffix(name, ".snap") && !strings.HasSuffix(name, ".wal") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("core: prune %s: %w", name, err)
		}
		removed = true
	}
	if removed {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed (or just-removed) entry
// survives power loss. Filesystems that cannot sync directories are
// tolerated: the rename itself is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("core: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: sync dir: %w", err)
	}
	return nil
}

// walFileName escapes a repository id into its log file name; it shares the
// snapshot's escaping so the two always sit side by side.
func walFileName(id string) string {
	return repoFileStem(id) + ".wal"
}
