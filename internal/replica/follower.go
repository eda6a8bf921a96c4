package replica

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/wire"
)

// Follower reconnect backoff bounds.
const (
	followerBackoffMin = 25 * time.Millisecond
	followerBackoffMax = 2 * time.Second
)

// lagSampleCap bounds the retained lag samples (newest-wins ring).
const lagSampleCap = 4096

// Status is a follower's replication health, adapted into the server's
// NodeStatus by whoever wires the two together (cmd/mie-server, the cluster
// harness) so this package never imports the transport layer.
type Status struct {
	// Connected reports a live session to the leader.
	Connected bool
	// CaughtUp reports a connected follower with no received-but-unapplied
	// records.
	CaughtUp bool
	// LagNanos is the last observed apply lag (record timestamp to local
	// apply), in nanoseconds.
	LagNanos int64
}

// Follower replicates a leader's repositories into its own durable service:
// it subscribes to the catalog and every repository stream, applies records
// idempotently (duplicates below the cursor are dropped), acknowledges its
// cursor after each batch, and reconnects with capped backoff — resuming
// every stream from its cursor — whenever the session breaks.
type Follower struct {
	svc  *core.Service
	addr string
	reg  *obs.Registry
	log  *slog.Logger

	mu      sync.Mutex
	cursors map[string]Cursor // last applied cursor per stream ("" = catalog)

	connected atomic.Bool
	applying  atomic.Int64 // records received but not yet applied
	lagNanos  atomic.Int64

	lagMu      sync.Mutex
	lagSamples []time.Duration

	appliedC    *obs.Counter
	duplicatesC *obs.Counter
	snapshotsC  *obs.Counter
	reconnectsC *obs.Counter
	applyErrsC  *obs.Counter // mutation records the engine refused (core.ErrBadWALRecord and the like)

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// StartFollower connects svc to the leader at addr and begins replicating.
// The service must be durable: applied mutations are re-logged to the
// follower's own WAL, so a restarted follower keeps serving its replicated
// state from local disk while it re-syncs. Cursors live in memory only —
// within one process they resume streams record-by-record across
// reconnects; a restarted process re-syncs through a snapshot transfer.
func StartFollower(svc *core.Service, addr string, reg *obs.Registry, log *slog.Logger) (*Follower, error) {
	if !svc.Durable() {
		return nil, errors.New("replica: follower requires a durable service")
	}
	if reg == nil {
		reg = obs.Default()
	}
	f := &Follower{
		svc:         svc,
		addr:        addr,
		reg:         reg,
		log:         log,
		cursors:     map[string]Cursor{CatalogStream: {}},
		appliedC:    reg.Counter("repl_follower_applied_total"),
		duplicatesC: reg.Counter("repl_follower_duplicates_total"),
		snapshotsC:  reg.Counter("repl_follower_snapshots_total"),
		reconnectsC: reg.Counter("repl_follower_reconnects_total"),
		applyErrsC:  reg.Counter("repl_follower_apply_errors_total"),
		done:        make(chan struct{}),
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Close stops replication. The follower's service is untouched: it keeps
// serving whatever state it has replicated so far.
func (f *Follower) Close() {
	f.closeOnce.Do(func() { close(f.done) })
	f.wg.Wait()
}

// Status reports the follower's current replication health.
func (f *Follower) Status() Status {
	conn := f.connected.Load()
	return Status{
		Connected: conn,
		CaughtUp:  conn && f.applying.Load() == 0,
		LagNanos:  f.lagNanos.Load(),
	}
}

// Cursor returns the follower's applied cursor for a stream.
func (f *Follower) Cursor(repoID string) Cursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursors[repoID]
}

// LagQuantile returns the q-quantile (0..1) of observed apply lag, or zero
// if no samples were taken yet.
func (f *Follower) LagQuantile(q float64) time.Duration {
	f.lagMu.Lock()
	samples := append([]time.Duration(nil), f.lagSamples...)
	f.lagMu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(q * float64(len(samples)-1))
	return samples[idx]
}

// run is the session loop: dial, replicate until the session breaks, back
// off, repeat. Backoff resets after any session that made progress.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := followerBackoffMin
	for {
		select {
		case <-f.done:
			return
		default:
		}
		progressed, err := f.session()
		f.connected.Store(false)
		select {
		case <-f.done:
			return
		default:
		}
		if err != nil && f.log != nil {
			f.log.Warn("replica: follower session ended", "leader", f.addr, "err", err.Error())
		}
		f.reconnectsC.Inc()
		if progressed {
			backoff = followerBackoffMin
		}
		select {
		case <-time.After(backoff):
		case <-f.done:
			return
		}
		if backoff *= 2; backoff > followerBackoffMax {
			backoff = followerBackoffMax
		}
	}
}

// session runs one connection to the leader: handshake, subscribe to the
// catalog plus every known repository stream from its cursor, then apply
// records as they arrive. It returns when the connection breaks or the
// follower is closed; progressed reports whether any record was applied.
func (f *Follower) session() (progressed bool, err error) {
	conn, err := net.DialTimeout("tcp", f.addr, 5*time.Second)
	if err != nil {
		return false, err
	}
	// Unblock the read loop on Close by tearing down the socket.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-f.done:
		case <-stop:
		}
		_ = conn.Close()
	}()

	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Handshake(conn); err != nil {
		return false, fmt.Errorf("leader %s: %w", f.addr, err)
	}
	_ = conn.SetDeadline(time.Time{})

	s := &session{f: f, conn: conn, subs: make(map[uint64]string), byRepo: make(map[string]uint64)}
	// Catalog first: it materializes repo subscriptions for anything new.
	if err := s.subscribe(CatalogStream); err != nil {
		return false, err
	}
	f.mu.Lock()
	ids := make([]string, 0, len(f.cursors))
	for id := range f.cursors {
		if id != CatalogStream {
			ids = append(ids, id)
		}
	}
	f.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		if err := s.subscribe(id); err != nil {
			return false, err
		}
	}
	f.connected.Store(true)

	for {
		env, _, err := wire.ReadFrame(conn)
		if err != nil {
			return s.progressed, err
		}
		switch env.Kind {
		case wire.KindReplRecords:
			if err := s.handleBatch(env); err != nil {
				return s.progressed, err
			}
		case wire.KindError:
			var ack wire.Ack
			_ = env.Decode(&ack)
			return s.progressed, fmt.Errorf("leader error: %s", ack.Err)
		default:
			// Ignore unknown frames: forward-compatible with new kinds.
		}
	}
}

// session is the per-connection state: the stream-id assignments of this
// connection and the socket write path (single goroutine, no lock needed).
type session struct {
	f          *Follower
	conn       net.Conn
	nextID     uint64
	subs       map[uint64]string // envelope ID -> stream
	byRepo     map[string]uint64 // stream -> envelope ID
	progressed bool
}

// subscribe opens one stream from the follower's cursor.
func (s *session) subscribe(repoID string) error {
	if _, ok := s.byRepo[repoID]; ok {
		return nil
	}
	cur := s.f.Cursor(repoID)
	s.nextID++
	id := s.nextID
	s.subs[id] = repoID
	s.byRepo[repoID] = id
	env, err := wire.NewEnvelope(wire.KindReplSubscribe, "", id, 0, wire.ReplSubscribeReq{RepoID: repoID, Gen: cur.Gen, Seq: cur.Seq})
	if err == nil {
		_, err = wire.WriteEnvelope(s.conn, env)
	}
	if err != nil {
		return fmt.Errorf("subscribe %q: %w", repoID, err)
	}
	return nil
}

// unsubscribeLocal forgets a stream's assignment (the leader side already
// ended it).
func (s *session) unsubscribeLocal(repoID string) {
	if id, ok := s.byRepo[repoID]; ok {
		delete(s.subs, id)
		delete(s.byRepo, repoID)
	}
}

// handleBatch applies one repl-records frame.
func (s *session) handleBatch(env *wire.Envelope) error {
	repoID, ok := s.subs[env.ID]
	if !ok {
		return nil // stale stream (already dropped locally)
	}
	var batch wire.ReplRecords
	if err := env.Decode(&batch); err != nil {
		return err
	}
	if batch.Err != "" {
		if batch.Code == wire.ErrCodeRepoNotFound {
			// The repository is gone on the leader; the catalog drop event
			// converges us, so just end this stream.
			s.unsubscribeLocal(repoID)
			return nil
		}
		return fmt.Errorf("stream %q: %s", repoID, batch.Err)
	}
	if len(batch.Records) == 0 {
		return nil
	}
	s.f.applying.Add(int64(len(batch.Records)))
	defer func() { s.f.applying.Store(0) }()
	for i := range batch.Records {
		if err := s.apply(repoID, &batch.Records[i]); err != nil {
			return err
		}
		s.f.applying.Add(-1)
	}
	last := batch.Records[len(batch.Records)-1]
	lag := time.Since(time.Unix(0, last.UnixNano))
	if lag < 0 {
		lag = 0
	}
	s.f.lagNanos.Store(int64(lag))
	s.f.lagMu.Lock()
	if len(s.f.lagSamples) < lagSampleCap {
		s.f.lagSamples = append(s.f.lagSamples, lag)
	} else {
		s.f.lagSamples[int(last.Seq)%lagSampleCap] = lag
	}
	s.f.lagMu.Unlock()
	cur := s.f.Cursor(repoID)
	ack, err := wire.NewEnvelope(wire.KindReplAck, "", 0, 0, wire.ReplAck{RepoID: repoID, Gen: cur.Gen, Seq: cur.Seq})
	if err == nil {
		_, err = wire.WriteEnvelope(s.conn, ack)
	}
	if err != nil {
		return fmt.Errorf("ack %q: %w", repoID, err)
	}
	return nil
}

// apply applies one record to the local service, enforcing cursor
// discipline: duplicates (at or below the cursor in the same generation)
// are skipped, gaps and generation mismatches tear the session so the
// resubscribe path can heal them.
func (s *session) apply(repoID string, rec *wire.ReplRecord) error {
	if err := rec.Verify(); err != nil {
		return fmt.Errorf("stream %q seq %d: %w", repoID, rec.Seq, err)
	}
	cur := s.f.Cursor(repoID)
	switch rec.Kind {
	case wire.ReplSnapshot:
		if rec.Gen == cur.Gen && rec.Seq <= cur.Seq {
			s.f.duplicatesC.Inc()
			return nil
		}
		if err := s.f.svc.InstallSnapshot(repoID, rec.Payload); err != nil {
			return fmt.Errorf("install snapshot %q: %w", repoID, err)
		}
		s.f.snapshotsC.Inc()
		s.f.appliedC.Inc()
		s.progressed = true
		s.f.setCursor(repoID, Cursor{Gen: rec.Gen, Seq: rec.Seq})
		return nil
	case wire.ReplMutation:
		if rec.Gen == cur.Gen && rec.Seq <= cur.Seq {
			s.f.duplicatesC.Inc()
			return nil
		}
		if rec.Gen != cur.Gen || rec.Seq != cur.Seq+1 {
			return fmt.Errorf("stream %q: gap at (%d,%d), cursor (%d,%d)", repoID, rec.Gen, rec.Seq, cur.Gen, cur.Seq)
		}
		repo, release, err := s.f.svc.Acquire(repoID)
		if err != nil {
			return fmt.Errorf("acquire %q: %w", repoID, err)
		}
		err = repo.ApplyReplicated(rec.Payload)
		release()
		if err != nil {
			s.f.applyErrsC.Inc()
			return fmt.Errorf("apply %q seq %d: %w", repoID, rec.Seq, err)
		}
		s.f.appliedC.Inc()
		s.progressed = true
		s.f.setCursor(repoID, Cursor{Gen: rec.Gen, Seq: rec.Seq})
		return nil
	case wire.ReplCreate, wire.ReplDrop:
		if repoID != CatalogStream {
			return fmt.Errorf("stream %q: catalog record on repo stream", repoID)
		}
		if rec.Gen == cur.Gen && rec.Seq < cur.Seq {
			s.f.duplicatesC.Inc()
			return nil
		}
		if err := s.applyCatalog(rec); err != nil {
			return err
		}
		s.f.appliedC.Inc()
		s.progressed = true
		s.f.setCursor(CatalogStream, Cursor{Gen: rec.Gen, Seq: rec.Seq})
		return nil
	default:
		return fmt.Errorf("stream %q: unknown record kind %d", repoID, rec.Kind)
	}
}

// applyCatalog converges the local catalog on a create/drop event. Creates
// tolerate an existing repository and drops a missing one: catalog listings
// are replayed on every re-sync, so both directions must be idempotent.
func (s *session) applyCatalog(rec *wire.ReplRecord) error {
	var ev wire.CreateRepoReq // what the hub's catalogPayload wrote
	if err := (&wire.Envelope{Kind: wire.KindCreateRepo, Data: rec.Payload}).Decode(&ev); err != nil {
		return fmt.Errorf("catalog seq %d: %w", rec.Seq, err)
	}
	switch rec.Kind {
	case wire.ReplCreate:
		_, err := s.f.svc.CreateRepository(ev.RepoID, ev.Opts.ToCore())
		if err != nil && !errors.Is(err, core.ErrRepoExists) {
			return fmt.Errorf("create %q: %w", ev.RepoID, err)
		}
		s.f.trackStream(ev.RepoID)
		return s.subscribe(ev.RepoID)
	case wire.ReplDrop:
		s.unsubscribeLocal(ev.RepoID)
		s.f.dropCursor(ev.RepoID)
		if err := s.f.svc.DropRepository(ev.RepoID); err != nil && !errors.Is(err, core.ErrRepoNotFound) {
			return fmt.Errorf("drop %q: %w", ev.RepoID, err)
		}
		return nil
	}
	return nil
}

func (f *Follower) setCursor(repoID string, c Cursor) {
	f.mu.Lock()
	f.cursors[repoID] = c
	f.mu.Unlock()
}

// trackStream gives a newly announced stream a zero cursor, so a session
// torn after the catalog event but before the stream's first record still
// resubscribes it on reconnect (the catalog cursor has moved past the event
// by then and the leader will not announce it again).
func (f *Follower) trackStream(repoID string) {
	f.mu.Lock()
	if _, known := f.cursors[repoID]; !known {
		f.cursors[repoID] = Cursor{}
	}
	f.mu.Unlock()
}

func (f *Follower) dropCursor(repoID string) {
	f.mu.Lock()
	delete(f.cursors, repoID)
	f.mu.Unlock()
}
