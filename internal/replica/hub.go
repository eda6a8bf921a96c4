// Package replica implements WAL-shipping replication for MIE services: a
// leader's Hub taps the service's durable mutation stream (core's
// ReplicationTap) and streams acknowledged records to follower nodes over
// the wire protocol; a Follower applies them idempotently into its own durable
// service and serves reads, forwarding mutations back to the leader.
//
// # Streams and cursors
//
// Every repository has one record stream, plus one catalog stream (repo id
// "") carrying create/drop events. A stream position is a (generation,
// sequence) cursor: sequences increase by one per record; the generation is
// a random value regenerated whenever the stream's history stops being
// replayable record-by-record — at a train install (trained state lives in
// the snapshot, not the WAL) and implicitly at leader restart (a fresh Hub
// draws fresh generations). A subscriber whose cursor cannot be resumed —
// wrong generation, or trimmed past the in-memory buffer — receives a full
// snapshot stamped with the exact cursor of its cut and resumes from there;
// SnapshotBytes captures that cursor under the repository's write lock, so
// the image and the cursor can never disagree. A cursor (g, s) always means
// "every record of generation g up to and including s is applied"; records
// at or below it are duplicates the follower drops.
//
// Replication endpoints assume the trusted interior of a deployment (the
// same trust domain as the leader's disk); run them inside the TLS/VPN
// perimeter, not on the client-facing edge.
package replica

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/wire"
)

// Stream buffer and batch bounds. The buffer absorbs follower lag without
// unbounded memory: beyond the caps the oldest records are trimmed and a
// too-slow follower falls back to a snapshot transfer. Variables, not
// constants, so tests can shrink the buffer to exercise the trim path.
var (
	maxBufferedRecords = 16384
	maxBufferedBytes   = 32 << 20
)

const (
	maxBatchRecords = 256
	maxBatchBytes   = 4 << 20
)

// CatalogStream is the reserved stream id of the repository create/drop
// stream.
const CatalogStream = ""

// Cursor is a replication stream position: Seq is the last applied
// sequence of generation Gen (zero value = nothing applied).
type Cursor struct {
	Gen uint64
	Seq uint64
}

// stream is the in-memory record buffer of one repository (or the catalog).
type stream struct {
	mu sync.Mutex
	// gen is the current generation; regenerated on epoch installs.
	gen uint64
	// next is the last assigned sequence (monotonic across generations).
	next uint64
	// recs holds the contiguous tail of the stream: recs[len-1].Seq == next.
	recs  []wire.ReplRecord
	bytes int
	// notify is closed and replaced whenever the stream advances.
	notify  chan struct{}
	dropped bool
}

// newGen draws a fresh nonzero generation.
func newGen() uint64 {
	var b [8]byte
	for {
		if _, err := cryptorand.Read(b[:]); err != nil {
			panic("replica: no entropy for generation: " + err.Error())
		}
		if g := binary.LittleEndian.Uint64(b[:]); g != 0 {
			return g
		}
	}
}

// appendLocked seals payload into the next record and wakes subscribers.
func (st *stream) appendLocked(kind int, payload []byte) {
	st.next++
	st.recs = append(st.recs, wire.NewReplRecord(st.gen, st.next, kind, time.Now().UnixNano(), payload))
	st.bytes += len(payload)
	for len(st.recs) > maxBufferedRecords || st.bytes > maxBufferedBytes {
		st.bytes -= len(st.recs[0].Payload)
		st.recs = st.recs[1:]
	}
	st.wakeLocked()
}

// rotateLocked starts a fresh generation: buffered history is unreplayable
// across the boundary, so it is dropped and subscribers fall back to a
// snapshot.
func (st *stream) rotateLocked() {
	st.gen = newGen()
	st.recs = nil
	st.bytes = 0
	st.wakeLocked()
}

func (st *stream) wakeLocked() {
	close(st.notify)
	st.notify = make(chan struct{})
}

// resumableLocked reports whether cursor c can be served record-by-record
// from the buffer.
func (st *stream) resumableLocked(c Cursor) bool {
	if c.Gen != st.gen || c.Seq > st.next {
		return false
	}
	oldest := st.next - uint64(len(st.recs)) // seq before the oldest buffered record
	return c.Seq >= oldest
}

// Hub is the leader side: it implements core.ReplicationTap to observe the
// service and server.ReplicationSource to stream to followers.
type Hub struct {
	svc *core.Service
	reg *obs.Registry

	mu      sync.Mutex
	streams map[string]*stream
	acked   map[string]Cursor // last follower-reported cursor per stream

	recordsC   *obs.Counter
	snapshotsC *obs.Counter
	batchesC   *obs.Counter
}

// NewHub attaches a replication hub to svc (wiring itself in as the
// service's ReplicationTap, which replays the existing catalog through
// RepoCreated). Attach before the service starts serving requests.
func NewHub(svc *core.Service, reg *obs.Registry) *Hub {
	if reg == nil {
		reg = obs.Default()
	}
	h := &Hub{
		svc:        svc,
		reg:        reg,
		streams:    map[string]*stream{CatalogStream: newStream()},
		acked:      make(map[string]Cursor),
		recordsC:   reg.Counter("repl_records_total"),
		snapshotsC: reg.Counter("repl_snapshots_total"),
		batchesC:   reg.Counter("repl_batches_total"),
	}
	svc.SetReplicationTap(h)
	return h
}

func newStream() *stream {
	return &stream{gen: newGen(), notify: make(chan struct{})}
}

// stream returns the record stream for id, creating it if needed.
func (h *Hub) stream(id string) *stream {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.streams[id]
	if st == nil {
		st = newStream()
		h.streams[id] = st
	}
	return st
}

// RepoCreated (core.ReplicationTap) announces a repository on the catalog
// stream and materializes its record stream.
func (h *Hub) RepoCreated(id string, opts core.RepositoryOptions) {
	h.stream(id) // materialize
	cat := h.stream(CatalogStream)
	cat.mu.Lock()
	cat.appendLocked(wire.ReplCreate, catalogPayload(id, opts))
	cat.mu.Unlock()
	h.recordsC.Inc()
}

// RepoDropped (core.ReplicationTap) ends the repository's stream and
// announces the drop on the catalog.
func (h *Hub) RepoDropped(id string) {
	h.mu.Lock()
	st := h.streams[id]
	delete(h.streams, id)
	h.mu.Unlock()
	if st != nil {
		st.mu.Lock()
		st.dropped = true
		st.wakeLocked()
		st.mu.Unlock()
	}
	cat := h.stream(CatalogStream)
	cat.mu.Lock()
	cat.appendLocked(wire.ReplDrop, catalogPayload(id, core.RepositoryOptions{}))
	cat.mu.Unlock()
	h.recordsC.Inc()
}

// MutationLogged (core.ReplicationTap) appends one acknowledged WAL record
// to the repository's stream. Called with the repository's write lock held,
// which is what makes the stream order and the log order identical.
func (h *Hub) MutationLogged(repoID string, payload []byte) {
	st := h.stream(repoID)
	st.mu.Lock()
	if !st.dropped {
		st.appendLocked(wire.ReplMutation, payload)
	}
	st.mu.Unlock()
	h.recordsC.Inc()
}

// EpochInstalled (core.ReplicationTap) rotates the stream's generation:
// trained state is not in the WAL, so followers must re-sync through a
// snapshot that contains the new epoch.
func (h *Hub) EpochInstalled(repoID string, epoch uint64) {
	st := h.stream(repoID)
	st.mu.Lock()
	if !st.dropped {
		st.rotateLocked()
	}
	st.mu.Unlock()
}

// Ack (server.ReplicationSource) records a follower's applied cursor.
func (h *Hub) Ack(ack wire.ReplAck) {
	h.mu.Lock()
	h.acked[ack.RepoID] = Cursor{Gen: ack.Gen, Seq: ack.Seq}
	h.mu.Unlock()
}

// Acked returns the last follower-reported cursor for a stream (zero if
// none) — observability for tests and operators.
func (h *Hub) Acked(repoID string) Cursor {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acked[repoID]
}

// Head returns a stream's current head cursor: its generation and last
// assigned sequence. A follower whose cursor equals the head has applied
// everything the leader has acknowledged — the caught-up predicate the
// cluster harness waits on.
func (h *Hub) Head(repoID string) Cursor {
	h.mu.Lock()
	st := h.streams[repoID]
	h.mu.Unlock()
	if st == nil {
		return Cursor{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return Cursor{Gen: st.gen, Seq: st.next}
}

// Status reports the leader's node status for the handshake.
func (h *Hub) Status() (role string, caughtUp bool, lagNanos int64) {
	return "leader", true, 0
}

// Subscribe (server.ReplicationSource) streams records for one stream to
// send until ctx ends. See the package comment for cursor semantics.
func (h *Hub) Subscribe(ctx context.Context, req wire.ReplSubscribeReq, send func(*wire.ReplRecords) error) error {
	if req.RepoID == CatalogStream {
		return h.subscribeCatalog(ctx, req, send)
	}
	cursor := Cursor{Gen: req.Gen, Seq: req.Seq}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		h.mu.Lock()
		st := h.streams[req.RepoID]
		h.mu.Unlock()
		if st == nil {
			return fmt.Errorf("%w: %s", core.ErrRepoNotFound, req.RepoID)
		}
		st.mu.Lock()
		if st.dropped {
			st.mu.Unlock()
			return fmt.Errorf("%w: %s", core.ErrRepoNotFound, req.RepoID)
		}
		if !st.resumableLocked(cursor) {
			st.mu.Unlock()
			rec, err := h.snapshotRecord(req.RepoID, st)
			if err != nil {
				return err
			}
			if err := send(&wire.ReplRecords{RepoID: req.RepoID, Records: []wire.ReplRecord{*rec}}); err != nil {
				return err
			}
			h.snapshotsC.Inc()
			h.batchesC.Inc()
			cursor = Cursor{Gen: rec.Gen, Seq: rec.Seq}
			continue
		}
		batch := batchAfterLocked(st, cursor.Seq)
		if len(batch) == 0 {
			ch := st.notify
			st.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		st.mu.Unlock()
		if err := send(&wire.ReplRecords{RepoID: req.RepoID, Records: batch}); err != nil {
			return err
		}
		h.batchesC.Inc()
		cursor = Cursor{Gen: batch[len(batch)-1].Gen, Seq: batch[len(batch)-1].Seq}
	}
}

// subscribeCatalog streams the catalog: a non-resumable cursor first
// receives the full current listing as create records stamped with the
// capture cursor, then live events.
func (h *Hub) subscribeCatalog(ctx context.Context, req wire.ReplSubscribeReq, send func(*wire.ReplRecords) error) error {
	st := h.stream(CatalogStream)
	cursor := Cursor{Gen: req.Gen, Seq: req.Seq}
	st.mu.Lock()
	if !st.resumableLocked(cursor) {
		// Capture the cursor before listing: a drop racing the listing is
		// replayed as a live event at a higher sequence, so the follower
		// converges either way.
		cut := Cursor{Gen: st.gen, Seq: st.next}
		st.mu.Unlock()
		batch := wire.ReplRecords{RepoID: CatalogStream}
		now := time.Now().UnixNano()
		for _, id := range h.svc.Repositories() {
			repo, release, err := h.svc.Acquire(id)
			if err != nil {
				continue // dropped concurrently; a live event covers it
			}
			opts := repo.Options()
			release()
			batch.Records = append(batch.Records, wire.NewReplRecord(cut.Gen, cut.Seq, wire.ReplCreate, now, catalogPayload(id, opts)))
		}
		if err := send(&batch); err != nil {
			return err
		}
		h.batchesC.Inc()
		cursor = cut
	} else {
		st.mu.Unlock()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.mu.Lock()
		if !st.resumableLocked(cursor) {
			// Trimmed past the buffer mid-session: restart with a listing.
			st.mu.Unlock()
			return h.subscribeCatalog(ctx, wire.ReplSubscribeReq{RepoID: CatalogStream}, send)
		}
		batch := batchAfterLocked(st, cursor.Seq)
		if len(batch) == 0 {
			ch := st.notify
			st.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		st.mu.Unlock()
		if err := send(&wire.ReplRecords{RepoID: CatalogStream, Records: batch}); err != nil {
			return err
		}
		h.batchesC.Inc()
		cursor = Cursor{Gen: batch[len(batch)-1].Gen, Seq: batch[len(batch)-1].Seq}
	}
}

// batchAfterLocked copies the records after seq, bounded by the batch caps.
func batchAfterLocked(st *stream, seq uint64) []wire.ReplRecord {
	oldest := st.next - uint64(len(st.recs))
	if seq < oldest {
		seq = oldest // caller verified resumable; defensive
	}
	start := int(seq - oldest)
	if start >= len(st.recs) {
		return nil
	}
	var out []wire.ReplRecord
	size := 0
	for _, rec := range st.recs[start:] {
		if len(out) >= maxBatchRecords || (len(out) > 0 && size+len(rec.Payload) > maxBatchBytes) {
			break
		}
		out = append(out, rec)
		size += len(rec.Payload)
	}
	return out
}

// snapshotRecord produces a ReplSnapshot record for one repository: the
// image and the cursor of its cut, captured atomically under the
// repository's write lock.
func (h *Hub) snapshotRecord(repoID string, st *stream) (*wire.ReplRecord, error) {
	repo, release, err := h.svc.Acquire(repoID)
	if err != nil {
		return nil, err
	}
	defer release()
	var cut Cursor
	image, err := repo.SnapshotBytes(func() {
		st.mu.Lock()
		cut = Cursor{Gen: st.gen, Seq: st.next}
		st.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	rec := wire.NewReplRecord(cut.Gen, cut.Seq, wire.ReplSnapshot, time.Now().UnixNano(), image)
	return &rec, nil
}

// catalogPayload is the payload of a catalog-stream record: the body of a
// CreateRepoReq frame naming the repository — with its engine options on a
// create so the follower can mirror it, zero options on a drop. The
// follower's applyCatalog decodes it.
func catalogPayload(id string, opts core.RepositoryOptions) []byte {
	env, err := wire.NewEnvelope(wire.KindCreateRepo, "", 0, 0, wire.CreateRepoReq{RepoID: id, Opts: wire.FromCore(opts)})
	if err != nil {
		panic("replica: CreateRepoReq has no binary form: " + err.Error()) // a bug in wire's codec table, not an input
	}
	return env.Data
}
