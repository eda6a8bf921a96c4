package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mie"
	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/wire"
)

// session is one set-up deployment with its load generator attached: the
// clients' connections through the router, the seeded op generators, and the
// ledger of what the deployment has acknowledged.
type session struct {
	in  *inputs
	d   *deployment
	ctx context.Context

	// conns are the clients' router connections. Each has its own registry,
	// so that client_tx_bytes_total / client_rx_bytes_total can be read per
	// client.
	conns    []*client.Conn
	connRegs []*obs.Registry
	// handles are public mie.Repository handles by repository index, opened
	// on first use; mobile-mixed drives everything through handle 0. They
	// count bytes in obs.Default(), where mie.Open puts them.
	handles map[int]mie.Repository

	gens    []opGen
	ledgers []map[string]int
	// userBytes is Σ acknowledged ciphertext bytes, the denominator of
	// disk_bytes_per_user_byte.
	userBytes atomic.Int64
	// warmOps operations — every client's warm-up, a fixed stretch of the
	// seeded sequences — moved warmBytes bytes between the clients and the
	// router: bytes_per_op.
	warmOps   int
	warmBytes int64
	// rywLooked counts searches for an object the same client added
	// earlier (read-your-writes), rywFound those that returned it.
	rywLooked, rywFound atomic.Int64
	fails               *failures

	// phaseS is the wall time of each set-up phase; "train" is the initial
	// Train of every repository.
	phaseS map[string]float64
}

// setUp boots a deployment under dir and brings it to the state the timed
// run starts from: repositories created, the corpus ingested through the
// router on every client connection, the initial Train done, the follower
// caught up, and every client warmed up. beforeTrain, when set, runs between
// ingest and the initial Train (the traced run measures untrained search
// there).
func setUp(dir string, in *inputs, fails *failures, beforeTrain func(*session)) (s *session, err error) {
	phaseStart := time.Now()
	d, err := boot(dir)
	if err != nil {
		return nil, err
	}
	s = &session{
		in:      in,
		d:       d,
		ctx:     context.Background(),
		handles: make(map[int]mie.Repository),
		gens:    in.newGens(),
		fails:   fails,
		phaseS:  make(map[string]float64),
	}
	phase := func(name string) {
		s.phaseS[name] = time.Since(phaseStart).Seconds()
		phaseStart = time.Now()
	}
	defer func() {
		if err != nil {
			_ = s.Close()
			s = nil
		}
	}()
	for c := 0; c < clientCount(); c++ {
		reg := obs.NewRegistry()
		conn, err := client.Dial(d.rt.Addr(), nil, client.WithObservability(reg))
		if err != nil {
			return s, fmt.Errorf("dial router: %w", err)
		}
		s.conns, s.connRegs = append(s.conns, conn), append(s.connRegs, reg)
		s.ledgers = append(s.ledgers, make(map[string]int))
	}
	for _, id := range in.repoIDs {
		if err := s.conns[0].CreateRepository(s.ctx, id, in.repoOpts); err != nil {
			return s, fmt.Errorf("create %s: %w", id, err)
		}
	}
	phase("boot_create")

	// Ingest: document i goes over connection i mod connections, which on
	// ingest-durable is also the client that owns its id.
	err = s.eachConn(func(c int) error {
		for i := c; i < len(in.corpus); i += len(s.conns) {
			doc := in.corpus[i]
			if err := s.conns[c].Update(s.ctx, in.repoIDs[doc.repo], in.updateFor(doc.item, doc.id)); err != nil {
				return fmt.Errorf("ingest %s: %w", doc.id, err)
			}
			s.acked(c, doc.id, doc.item)
		}
		return nil
	})
	if err != nil {
		return s, err
	}
	phase("ingest")
	if beforeTrain != nil {
		beforeTrain(s)
		phase("before_train")
	}

	err = s.eachConn(func(c int) error {
		for r := c; r < len(in.repoIDs); r += len(s.conns) {
			if err := s.conns[c].Train(s.ctx, in.repoIDs[r]); err != nil {
				return fmt.Errorf("train %s: %w", in.repoIDs[r], err)
			}
		}
		return nil
	})
	if err != nil {
		return s, err
	}
	phase("train")

	if _, err := d.waitCaughtUp(in.repoIDs, time.Minute); err != nil {
		return s, err
	}
	if in.viaHandle {
		if _, err := s.handle(0); err != nil {
			return s, err
		}
	}
	phase("catch_up")
	s.warmUp()
	if _, err := d.waitCaughtUp(in.repoIDs, time.Minute); err != nil {
		return s, err
	}
	phase("warm_up")
	return s, nil
}

// eachConn runs fn once per client connection, concurrently, and returns the
// first error.
func (s *session) eachConn(fn func(c int) error) error {
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for c := range s.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// handle returns the public mie.Repository handle of repository r.
func (s *session) handle(r int) (mie.Repository, error) {
	if h := s.handles[r]; h != nil {
		return h, nil
	}
	h, err := mie.Open(s.ctx, mie.Options{Addr: s.d.rt.Addr(), Client: s.in.cc, RepoID: s.in.repoIDs[r]})
	if err != nil {
		return nil, fmt.Errorf("open mie handle on %s: %w", s.in.repoIDs[r], err)
	}
	s.handles[r] = h
	return h, nil
}

// acked records an acknowledged write of pool item under id by client c.
func (s *session) acked(c int, id string, itemIdx int) {
	s.ledgers[c][id] = itemIdx
	it := s.in.pool[itemIdx]
	// The stored ciphertext is the pool's own, or on the handle path a fresh
	// encryption of the same object under another id: the same length up to
	// the id's.
	n := len(it.up.Ciphertext)
	if s.in.viaHandle {
		n += len(id) - len(it.obj.ID)
	}
	s.userBytes.Add(int64(n))
}

// do executes one operation as client c the way the workload's caller issues
// it — a pre-encoded call on the client's router connection, or on
// mobile-mixed a public-handle call that extracts, encodes and encrypts
// first — and returns the caller-visible latency. Checking the reply is not
// timed. A failed mutation leaves its id's ledger state unknown.
func (s *session) do(c int, o op) (time.Duration, error) {
	in := s.in
	mobile := in.viaHandle
	repo := in.repoIDs[0]
	var hits []core.SearchHit
	var call func() error
	switch {
	case o.kind == opSearch && mobile:
		obj := in.objectFor(o.item, "query")
		call = func() (err error) { hits, err = s.handles[0].Search(s.ctx, obj, in.sc.K); return }
	case o.kind == opSearch:
		q := in.queries[o.query]
		repo = in.repoIDs[q.repo]
		call = func() (err error) { hits, err = s.conns[c].Search(s.ctx, repo, q.q); return }
	case o.kind == opUpdate && mobile:
		obj := in.objectFor(o.item, o.id)
		call = func() error { return s.handles[0].Add(s.ctx, obj, in.dataKey) }
	case o.kind == opUpdate:
		up := in.updateFor(o.item, o.id)
		call = func() error { return s.conns[c].Update(s.ctx, repo, up) }
	case mobile:
		call = func() error { return s.handles[0].Remove(s.ctx, o.id) }
	default:
		call = func() error { return s.conns[c].Remove(s.ctx, repo, o.id) }
	}
	start := time.Now()
	err := call()
	el := time.Since(start)
	switch {
	case o.kind == opSearch:
		if err == nil {
			err = checkHits(hits, in.sc.K)
		}
		if err == nil && o.expect != "" {
			s.rywLooked.Add(1)
			if hasObject(hits, o.expect) {
				s.rywFound.Add(1)
			}
		}
	case err != nil:
		s.ledgers[c][o.id] = ledgerUnknown
	case o.kind == opUpdate:
		s.acked(c, o.id, o.item)
	default:
		s.ledgers[c][o.id] = ledgerRemoved
	}
	return el, err
}

// searchesServed is a node's count of served searches, from its own
// registry.
func searchesServed(reg *obs.Registry) int64 {
	return reg.Counter(obs.L("server_requests_total", "kind", wire.KindSearch)).Value()
}

func (s *session) followerSearches() int64 { return searchesServed(s.d.followerReg) }
func (s *session) leaderSearches() int64   { return searchesServed(s.d.leaderReg) }

// warmUp issues every client's untimed warm-up operations and counts the
// bytes they move. The router only learns from its periodic health probe
// that the follower has caught up, so on a workload with follower-homed
// repositories one of their queries is then repeated (for at most two
// seconds) until the follower has served it: the timed run must start with
// reads already spread as they will stay. The repeats are not taken from the
// clients' sequences, which must enter the timed run at the same operation
// every time.
func (s *session) warmUp() {
	moved := make([]int64, s.in.clients)
	s.eachClient(func(c int) {
		before := s.clientBytes(c)
		for i := 0; i < s.in.sc.WarmupOps; i++ {
			o := s.gens[c].next()
			if _, err := s.do(c, o); err != nil {
				s.fails.add("warm-up %s: %v", o.kind, err)
			}
		}
		moved[c] = s.clientBytes(c) - before
	})
	s.warmOps = s.in.clients * s.in.sc.WarmupOps
	for _, n := range moved {
		s.warmBytes += n
	}
	ring := s.d.rt.Ring()
	for _, q := range s.in.queries {
		id := s.in.repoIDs[q.repo]
		if ring.Prefer(id)[0] != nodeFollower {
			continue
		}
		base := s.followerSearches()
		for giveUp := time.Now().Add(2 * time.Second); s.followerSearches() == base && time.Now().Before(giveUp); {
			if _, err := s.conns[0].Search(s.ctx, id, q.q); err != nil {
				s.fails.add("warm-up probe on %s: %v", id, err)
				return
			}
		}
		return
	}
}

// eachClient runs fn once per workload client, concurrently.
func (s *session) eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < s.in.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// timedRun is what the closed loop measured.
type timedRun struct {
	wallS     float64
	attempted int
	failed    int
	// ms holds the latencies of the successful operations by kind.
	ms [3][]float64

	cpuMs      float64
	mallocs    uint64
	allocBytes uint64
	gcPauseMs  float64

	trainS float64 // mobile-mixed: the mid-run retrain, 0 if none ran
}

func (t *timedRun) completed() int { return t.attempted - t.failed }

// runTimed drives the workload closed-loop — each client sends its next
// operation when the previous one has been answered — for the given
// duration, and until at least MinOps operations have been timed.
func (s *session) runTimed(d time.Duration) *timedRun {
	in := s.in
	res := &timedRun{}
	perClient := make([]timedRun, in.clients)

	var done sync.WaitGroup // the mid-run retrain
	var ruStart, ruEnd syscall.Rusage
	var msStart, msEnd runtime.MemStats
	runtime.ReadMemStats(&msStart)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruStart) // cannot fail for RUSAGE_SELF
	start := time.Now()
	deadline := start.Add(d)

	// mobile-mixed retrains beside its RetrainAtOp'th operation — a fixed
	// point of the sequence, not of the clock, so the same operations meet
	// the retrain on every run — and runs at least until then.
	retrainAt := -1
	if in.viaHandle {
		retrainAt = in.sc.RetrainAtOp
	}
	minPerClient := (in.sc.MinOps + in.clients - 1) / in.clients
	s.eachClient(func(c int) {
		pc := &perClient[c]
		for time.Now().Before(deadline) || pc.attempted < minPerClient || pc.attempted <= retrainAt {
			if pc.attempted == retrainAt {
				done.Add(1)
				go func() {
					defer done.Done()
					res.trainS = s.retrain()
				}()
			}
			o := s.gens[c].next()
			el, err := s.do(c, o)
			pc.attempted++
			if err != nil {
				pc.failed++
				s.fails.add("%s as client %d: %v", o.kind, c, err)
				continue
			}
			pc.ms[o.kind] = append(pc.ms[o.kind], float64(el)/float64(time.Millisecond))
		}
	})
	res.wallS = time.Since(start).Seconds()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruEnd)
	runtime.ReadMemStats(&msEnd)
	done.Wait()

	for _, pc := range perClient {
		res.attempted += pc.attempted
		res.failed += pc.failed
		for k := range pc.ms {
			res.ms[k] = append(res.ms[k], pc.ms[k]...)
		}
	}
	res.cpuMs = cpuMillis(&ruEnd) - cpuMillis(&ruStart)
	res.mallocs = msEnd.Mallocs - msStart.Mallocs
	res.allocBytes = msEnd.TotalAlloc - msStart.TotalAlloc
	res.gcPauseMs = float64(msEnd.PauseTotalNs-msStart.PauseTotalNs) / 1e6
	return res
}

// retrain starts an asynchronous Train on repository 0 through its public
// handle, waits for it, and returns the wall time. A failure is counted.
func (s *session) retrain() float64 {
	h, err := s.handle(0)
	if err != nil {
		s.fails.add("retrain: %v", err)
		return 0
	}
	start := time.Now()
	job, err := h.TrainAsync(s.ctx)
	if err != nil {
		s.fails.add("retrain: start: %v", err)
		return 0
	}
	if st, err := job.Wait(s.ctx); err != nil || st.State != mie.TrainDone {
		s.fails.add("retrain: job ended %q: %v %s", st.State, err, st.Err)
	}
	return time.Since(start).Seconds()
}

// clientBytes is the bytes client c has sent and received: its own
// connection's registry, or for the public handle obs.Default(), where
// mie.Open counts them (nothing else in this process dials through a
// connection counted there).
func (s *session) clientBytes(c int) int64 {
	reg := s.connRegs[c]
	if s.in.viaHandle {
		reg = obs.Default()
	}
	return reg.Counter("client_tx_bytes_total").Value() + reg.Counter("client_rx_bytes_total").Value()
}

func cpuMillis(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// leaderRepo pins repository r on the leader for in-process calls.
func (s *session) leaderRepo(r int) (*core.Repository, func(), error) {
	return s.d.leaderSvc.Acquire(s.in.repoIDs[r])
}

// Close releases the clients and stops the deployment.
func (s *session) Close() error {
	var errs []error
	for _, h := range s.handles {
		errs = append(errs, h.Close())
	}
	for _, conn := range s.conns {
		errs = append(errs, conn.Close())
	}
	errs = append(errs, s.d.Close())
	return errors.Join(errs...)
}
