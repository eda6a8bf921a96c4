package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/dataset"
	"mie/internal/imaging"
	"mie/internal/index"
	"mie/internal/obs"
	"mie/internal/wal"
	"mie/internal/wire"
)

// The traced run splits an operation into layers from outside the program:
// the same operation is issued at successively higher public entry points
// (a staircase), a span is recorded around every call, and a layer's self
// time is its span minus the spans of the stairs below it.
//
//	stair                                  parent        self time
//	client.encode  Client.PrepareQuery     mie           its own span
//	core           Acquire+SearchContext   server        its own span
//	server         Conn.Search → leader    router        server − core   (client mux, wire, dispatch)
//	router         Conn.Search → router    mie           router − server (relay)
//	mie            mie.Repository.Search   —             mie − router − client.encode
//
// The self-check is that the stairs measured below the top one compose into
// it: (client.encode + router) / mie must sit in [0.9, 1.1].
const (
	stairEncode = "client.encode"
	stairCore   = "core"
	stairServer = "server"
	stairRouter = "router"
	stairMie    = "mie"
)

// searchOrder climbs the stairs bottom-up. updateOrder puts the handle stair
// (which encrypts afresh) before the pre-encoded ones, so that the id ends up
// holding the pool's own ciphertext, which the ledger check compares.
var (
	searchOrder = []string{stairEncode, stairCore, stairServer, stairRouter, stairMie}
	updateOrder = []string{stairEncode, stairMie, stairCore, stairServer, stairRouter}
)

// stairParent names the next stair up, whose span contains this stair's work;
// the top stair has none.
var stairParent = map[string]string{
	stairEncode: stairMie,
	stairCore:   stairServer,
	stairServer: stairRouter,
	stairRouter: stairMie,
}

// span is one line of bench/out/trace-<workload>.jsonl.
type span struct {
	Trace   int    `json:"trace"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends and accumulates each
// stair's durations per operation kind.
type tracer struct {
	t0     time.Time
	spans  []span
	nextID int
	trace  int
	ms     map[string][]float64 // "<kind>/<stair>" → durations
	calls  int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nextID: 1, ms: make(map[string][]float64)}
}

// staircase runs one operation's stairs in the given order and records a
// span for each. calls maps a stair to the call issuing the operation at that
// entry point.
func (t *tracer) staircase(kind string, order []string, calls map[string]func() error) error {
	t.trace++
	ids := make(map[string]int, len(order))
	for _, st := range order {
		ids[st] = t.nextID
		t.nextID++
	}
	first := len(t.spans)
	for _, st := range order {
		call := calls[st]
		start := time.Now()
		err := call()
		end := time.Now()
		if err != nil {
			t.spans = t.spans[:first] // an operation enters the statistics whole or not at all
			return fmt.Errorf("%s at stair %s: %w", kind, st, err)
		}
		t.spans = append(t.spans, span{
			Trace: t.trace, Span: ids[st], Parent: ids[stairParent[st]], Layer: kind + "/" + st,
			StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		})
	}
	for _, sp := range t.spans[first:] {
		t.ms[sp.Layer] = append(t.ms[sp.Layer], float64(sp.EndNS-sp.StartNS)/1e6)
		t.calls++
	}
	return nil
}

// typical is the median span of one stair. Medians, not means: a stall of a
// hundred milliseconds (a GC cycle, a burst on a shared box) that lands in
// one stair of one operation would otherwise move that layer's figure.
func (t *tracer) typical(kind, stair string) float64 { return medianOf(t.ms[kind+"/"+stair]) }

// selfTimes returns the typical self time of every layer for one operation
// kind, and the layers-sum ratio: the median over operations of
// (client.encode + router) / mie.
func (t *tracer) selfTimes(kind string) (self map[string]float64, ratio float64) {
	enc, cor, srv, rtr, top := t.typical(kind, stairEncode), t.typical(kind, stairCore), t.typical(kind, stairServer), t.typical(kind, stairRouter), t.typical(kind, stairMie)
	self = map[string]float64{
		stairEncode: enc,
		stairCore:   cor,
		stairServer: srv - cor,
		stairRouter: rtr - srv,
		stairMie:    top - rtr - enc,
	}
	encs, rtrs, tops := t.ms[kind+"/"+stairEncode], t.ms[kind+"/"+stairRouter], t.ms[kind+"/"+stairMie]
	ratios := make([]float64, len(tops))
	for i := range tops {
		ratios[i] = (encs[i] + rtrs[i]) / tops[i]
	}
	return self, medianOf(ratios)
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	return errors.Join(w.Flush(), f.Close())
}

// runTraced is the traced run: one set-up, then for the run's duration the
// search staircase, the update staircase and a plain untraced loop at the
// workload's own entry point (the staircase's distortion against it is
// trace.overhead_share), then the counter-derived and micro-measured layer
// metrics. Both staircases run on every workload, so every layer metric
// exists everywhere: a read-only workload still shows what a write costs in
// its state, and the reverse.
func runTraced(cfg runConfig, in *inputs, root string, fails *failures, res *result, diag map[string]metricValue) (err error) {
	pl := newMetricSet(perLayerSpecs)
	rng := rand.New(rand.NewSource(in.seed ^ 0x7ace))

	s, err := setUp(filepath.Join(root, "setup-0"), in, fails, func(s *session) {
		// Untrained search: dense modalities fall back to the linear scan,
		// or past ANN.MinCorpus encodings to the LSH candidate index.
		var ms []float64
		for i := 0; i < in.sc.MicroIters; i++ {
			q := in.queries[rng.Intn(len(in.queries))]
			d, err := s.coreSearch(q)
			if err != nil {
				fails.add("untrained search: %v", err)
				return
			}
			ms = append(ms, d)
		}
		pl.set("core.search_untrained_ms", medianOf(ms))
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, s.Close()) }()
	pl.set("core.train_full_s", s.phaseS["train"])

	// The server stair dials the leader directly, on its own registry.
	direct, err := client.Dial(s.d.leaderSrv.Addr(), nil, client.WithObservability(obs.NewRegistry()))
	if err != nil {
		return fmt.Errorf("dial leader: %w", err)
	}
	defer func() { err = errors.Join(err, direct.Close()) }()

	tr := newTracer()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var memStart, memEnd runtime.MemStats
	runtime.ReadMemStats(&memStart)

	// Search staircase: the same query at every stair, back to back.
	check := func(hits []core.SearchHit, err error) error {
		if err != nil {
			return err
		}
		return checkHits(hits, in.sc.K)
	}
	routerSearches, followerServed := 0, int64(0)
	for deadline, n := time.Now().Add(budget*2/5), 0; time.Now().Before(deadline) || n < minStairOps; n++ {
		q := in.queries[rng.Intn(len(in.queries))]
		repoID := in.repoIDs[q.repo]
		obj := in.pool[q.item].obj
		h, err := s.handle(q.repo)
		if err != nil {
			return err
		}
		err = tr.staircase("search", searchOrder, map[string]func() error{
			stairEncode: func() error { _, err := in.cc.PrepareQuery(obj, in.sc.K); return err },
			stairCore:   func() error { _, err := s.coreSearch(q); return err },
			stairServer: func() error { return check(direct.Search(s.ctx, repoID, q.q)) },
			stairRouter: func() error {
				before := s.followerSearches()
				err := check(s.conns[0].Search(s.ctx, repoID, q.q))
				followerServed += s.followerSearches() - before
				routerSearches++
				return err
			},
			stairMie: func() error { return check(h.Search(s.ctx, obj, in.sc.K)) },
		})
		if err != nil {
			fails.add("%v", err)
		}
	}

	// The read workloads' searches are checked now, in the state those
	// workloads run in. The writes below overwrite a fifth of a read-only
	// corpus and retrain incrementally, after which a self-query finds its
	// object less often (86-92 % of the time on search-large).
	checks := s.verifyReads(diag)

	// Update staircase: every stair overwrites the same existing id (owned by
	// client 0's ledger) with the same pool content. Every fourth operation
	// also times an in-process remove, then restores the id.
	var removeMs []float64
	mutations := 0
	walFsyncs, walBytes := obs.Default().Counter("wal_fsyncs").Value(), obs.Default().Counter("wal_bytes").Value()
	replRecords, replBatches := s.d.replReg.Counter("repl_records_total").Value(), s.d.replReg.Counter("repl_batches_total").Value()
	owned := ownedDocs(in, len(s.conns))
	for deadline, n := time.Now().Add(budget*2/5), 0; time.Now().Before(deadline) || n < minStairOps; n++ {
		target := owned[rng.Intn(len(owned))]
		itemIdx := rng.Intn(len(in.pool))
		if in.readOnly {
			itemIdx = target.item // keep the read workloads' self-queries valid
		}
		repoID := in.repoIDs[target.repo]
		up := in.updateFor(itemIdx, target.id)
		obj := in.objectFor(itemIdx, target.id)
		h, err := s.handle(target.repo)
		if err != nil {
			return err
		}
		err = tr.staircase("update", updateOrder, map[string]func() error{
			stairEncode: func() error { _, err := in.cc.PrepareUpdate(obj, in.dataKey); return err },
			stairMie:    func() error { return h.Add(s.ctx, obj, in.dataKey) },
			stairCore: func() error {
				repo, release, err := s.leaderRepo(target.repo)
				if err != nil {
					return err
				}
				defer release()
				return repo.UpdateContext(s.ctx, up)
			},
			stairServer: func() error { return direct.Update(s.ctx, repoID, up) },
			stairRouter: func() error { return s.conns[0].Update(s.ctx, repoID, up) },
		})
		if err != nil {
			fails.add("%v", err)
			s.ledgers[0][target.id] = ledgerUnknown
			continue
		}
		mutations += 4
		s.acked(0, target.id, itemIdx)
		if n%4 == 0 {
			d, err := s.coreRemoveRestore(target, up)
			if err != nil {
				fails.add("remove stair: %v", err)
				s.ledgers[0][target.id] = ledgerUnknown
				continue
			}
			removeMs = append(removeMs, d)
			mutations += 2
		}
	}
	lastAck := time.Now()
	runtime.ReadMemStats(&memEnd)
	walFsyncs = obs.Default().Counter("wal_fsyncs").Value() - walFsyncs
	walBytes = obs.Default().Counter("wal_bytes").Value() - walBytes
	replRecords = s.d.replReg.Counter("repl_records_total").Value() - replRecords
	replBatches = s.d.replReg.Counter("repl_batches_total").Value() - replBatches
	if _, err := s.d.waitCaughtUp(in.repoIDs, time.Minute); err != nil {
		return err
	}
	catchUp := time.Since(lastAck)

	// One-modality searches in process, where the workload's queries carry
	// both modalities: what each modality's lookup costs on its own.
	if q0 := in.queries[0].q; len(q0.TextTokens) > 0 && len(q0.ImageEncodings) > 0 {
		var textMs, imageMs []float64
		for i := 0; i < in.sc.MicroIters; i++ {
			q := in.queries[rng.Intn(len(in.queries))]
			text, image := q, q
			text.q = &core.Query{TextTokens: q.q.TextTokens, K: q.q.K}
			image.q = &core.Query{ImageEncodings: q.q.ImageEncodings, K: q.q.K}
			tms, terr := s.coreSearch(text)
			ims, ierr := s.coreSearch(image)
			if terr != nil || ierr != nil {
				fails.add("one-modality search: text %v, image %v", terr, ierr)
				continue
			}
			textMs, imageMs = append(textMs, tms), append(imageMs, ims)
		}
		diag["core.search_text_only_ms"] = metricValue{medianOf(textMs), "ms"}
		diag["core.search_image_only_ms"] = metricValue{medianOf(imageMs), "ms"}
	}

	// Plain loop: client 0 continues the workload's own sequence at its own
	// entry point, with no spans and no other stairs in between. (The
	// staircase only overwrote ids, so the sequence's model of what is
	// stored still holds.)
	var plainMs [3][]float64
	for deadline, n := time.Now().Add(budget/5), 0; time.Now().Before(deadline) || n < minStairOps; n++ {
		o := s.gens[0].next()
		el, err := s.do(0, o)
		if err != nil {
			fails.add("plain %s: %v", o.kind, err)
			continue
		}
		plainMs[o.kind] = append(plainMs[o.kind], float64(el)/float64(time.Millisecond))
	}

	// Retrain after the writes above: how the train resolved, and its cost.
	pl.set("core.retrain_s", s.retrain())
	if err := s.retrainInfo(pl); err != nil {
		return err
	}
	if _, err := s.d.waitCaughtUp(in.repoIDs, time.Minute); err != nil {
		return err
	}

	// Stair-derived layer metrics.
	searchSelf, searchRatio := tr.selfTimes("search")
	updateSelf, updateRatio := tr.selfTimes("update")
	pl.set("client.encode_query_ms", searchSelf[stairEncode])
	pl.set("client.encode_update_ms", updateSelf[stairEncode])
	pl.set("core.search_ms", searchSelf[stairCore])
	pl.set("core.update_ms", updateSelf[stairCore])
	pl.set("core.remove_ms", medianOf(removeMs))
	pl.set("server.search_overhead_ms", searchSelf[stairServer])
	pl.set("server.update_overhead_ms", updateSelf[stairServer])
	pl.set("router.relay_search_ms", searchSelf[stairRouter])
	pl.set("router.relay_update_ms", updateSelf[stairRouter])
	pl.set("router.follower_read_share", float64(followerServed)/float64(routerSearches))
	pl.set("stair.search_top_ms", tr.typical("search", stairMie))
	pl.set("stair.update_top_ms", tr.typical("update", stairMie))
	pl.set("stair.ops", float64(tr.trace))
	pl.set("trace.layers_sum_ratio.search", searchRatio)
	pl.set("trace.layers_sum_ratio.update", updateRatio)
	for kind, ratio := range map[string]float64{"search": searchRatio, "update": updateRatio} {
		if tol := in.sc.LayerSumTolerance; ratio < 1-tol || ratio > 1+tol {
			fails.add("%s layers sum to %.3f of the top stair, outside 1 ± %g", kind, ratio, tol)
		}
	}

	// The staircase's distortion of the workload's own operation: the stair
	// at the workload's entry point against the plain loop.
	kind, stair, plain := "search", stairRouter, plainMs[opSearch]
	switch {
	case in.viaHandle:
		stair = stairMie
	case !in.readOnly:
		kind, plain = "update", plainMs[opUpdate]
	}
	if len(plain) == 0 {
		return fmt.Errorf("plain loop completed no %s", kind)
	}
	pl.set("trace.overhead_share", tr.typical(kind, stair)/medianOf(plain)-1)

	// Counter-derived layer metrics over the update staircase. The WAL
	// counters are process-wide, so they cover the leader's log and the
	// follower's: two appends and two fsyncs per replicated mutation.
	pl.set("wal.fsyncs_per_update", float64(walFsyncs)/float64(mutations))
	pl.set("wal.bytes_per_update", float64(walBytes)/float64(mutations))
	pl.set("replica.records_per_batch", float64(replRecords)/float64(replBatches))
	pl.set("replica.lag_p50_ms", float64(s.d.follower.LagQuantile(0.50))/float64(time.Millisecond))
	pl.set("replica.lag_p95_ms", float64(s.d.follower.LagQuantile(0.95))/float64(time.Millisecond))
	pl.set("replica.catchup_ms", float64(catchUp)/float64(time.Millisecond))
	pl.set("proc.allocs_per_op", float64(memEnd.Mallocs-memStart.Mallocs)/float64(tr.calls))
	pl.set("proc.alloc_bytes_per_op", float64(memEnd.TotalAlloc-memStart.TotalAlloc)/float64(tr.calls))
	pl.set("proc.gc_pause_ms", float64(memEnd.PauseTotalNs-memStart.PauseTotalNs)/1e6)
	pl.set("proc.goroutines_end", float64(runtime.NumGoroutine()))

	if err := s.indexStats(pl); err != nil {
		return err
	}
	if err := microMeasure(in, s, root, pl); err != nil {
		return err
	}

	// Durability: what recovery replays, and what a snapshot costs.
	rec, err := recoverCopy(s.d.leaderDir(), filepath.Join(root, "recovered"))
	if err != nil {
		return err
	}
	checks += s.verifyStored(rec.svc, diag)
	if err := rec.svc.Close(); err != nil {
		return err
	}
	pl.set("core.recovery_us_per_record", rec.openS*1e6/float64(rec.report.ReplayedRecords))
	pl.set("core.recovery_replayed_records", float64(rec.report.ReplayedRecords))
	snapStart := time.Now()
	if err := core.SaveService(s.d.leaderSvc, s.d.leaderDir()); err != nil {
		return fmt.Errorf("snapshot leader: %w", err)
	}
	pl.set("core.snapshot_s", time.Since(snapStart).Seconds())

	if err := pl.complete(); err != nil {
		return err
	}
	res.PerLayer = pl.values
	res.Attempted = s.warmOps + tr.calls + len(removeMs) + len(plainMs[0]) + len(plainMs[1]) + len(plainMs[2]) + checks

	tracePath := filepath.Join(cfg.traceDir, "trace-"+in.workload+".jsonl")
	if err := tr.writeFile(tracePath); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	diag["trace_spans"] = metricValue{float64(len(tr.spans)), "count"}
	res.Layers, res.TraceFile = tr.layerTable(), tracePath
	return nil
}

// minStairOps keeps a very short traced run (the unit test's) going until
// its means have something to average.
const minStairOps = 6

// ownedDocs lists the corpus documents in client 0's ledger.
func ownedDocs(in *inputs, conns int) []doc {
	var out []doc
	for i := 0; i < len(in.corpus); i += conns {
		out = append(out, in.corpus[i])
	}
	return out
}

// coreSearch times Acquire + SearchContext on the leader, in process.
func (s *session) coreSearch(q query) (ms float64, err error) {
	start := time.Now()
	repo, release, err := s.leaderRepo(q.repo)
	if err != nil {
		return 0, err
	}
	hits, err := repo.SearchContext(s.ctx, q.q)
	release()
	el := time.Since(start)
	if err != nil {
		return 0, err
	}
	return float64(el) / float64(time.Millisecond), checkHits(hits, s.in.sc.K)
}

// coreRemoveRestore times an in-process RemoveContext of target on the
// leader and writes the object back.
func (s *session) coreRemoveRestore(target doc, up *core.Update) (ms float64, err error) {
	repo, release, err := s.leaderRepo(target.repo)
	if err != nil {
		return 0, err
	}
	defer release()
	start := time.Now()
	err = repo.RemoveContext(s.ctx, target.id)
	el := time.Since(start)
	if err != nil {
		return 0, err
	}
	return float64(el) / float64(time.Millisecond), repo.UpdateContext(s.ctx, up)
}

// retrainInfo reports how the last Train on repository 0 resolved.
func (s *session) retrainInfo(pl *metricSet) error {
	repo, release, err := s.leaderRepo(0)
	if err != nil {
		return err
	}
	defer release()
	info := repo.LastTrain()
	if info == nil {
		return errors.New("leader reports no train after the retrain")
	}
	incremental := 0.0
	if info.Mode == "incremental" {
		incremental = 1
	}
	pl.set("core.retrain_incremental", incremental)
	pl.set("core.retrain_delta_docs", float64(info.DeltaDocs))
	return nil
}

// indexStats sums the leader's segment statistics over repositories and
// modalities.
func (s *session) indexStats(pl *metricSet) error {
	var sum index.SegmentStats
	for r := range s.in.repoIDs {
		repo, release, err := s.leaderRepo(r)
		if err != nil {
			return err
		}
		for _, st := range repo.IndexStats() {
			sum.SealedSegments += st.SealedSegments
			sum.MemtableDocs += st.MemtableDocs
			sum.DeadDocs += st.DeadDocs
			sum.Compactions += st.Compactions
		}
		release()
	}
	pl.set("index.segments", float64(sum.SealedSegments))
	pl.set("index.memtable_docs", float64(sum.MemtableDocs))
	pl.set("index.dead_docs", float64(sum.DeadDocs))
	pl.set("index.compactions", float64(sum.Compactions))
	return nil
}

// timeEach returns the mean duration of fn over iters calls, in the given
// unit.
func timeEach(iters int, unit time.Duration, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(unit) / float64(iters), nil
}

// microMeasure times single layers through their public functions on the
// workload's own payloads: the client-side primitives, the wire codec on a
// real update frame and a real search response, and the WAL with and without
// fsync at the update frame's size.
func microMeasure(in *inputs, s *session, root string, pl *metricSet) error {
	iters := in.sc.MicroIters
	set := func(name string, unit time.Duration, fn func(i int) error) error {
		v, err := timeEach(iters, unit, fn)
		if err != nil {
			return fmt.Errorf("measure %s: %w", name, err)
		}
		pl.set(name, v)
		return nil
	}

	// Client-side primitives on seeded images of the run's shape, whatever
	// the workload's own modalities are.
	images := make([]*imaging.Image, 8)
	for i := range images {
		images[i] = dataset.TopicImage(in.sc.ImageSize, i, in.seed+int64(i))
	}
	pyramid := imaging.PyramidParams{Scales: in.sc.Pyramid}
	descs := imaging.Extract(images[0], pyramid)
	if err := set("imaging.extract_ms", time.Millisecond, func(i int) error {
		imaging.Extract(images[i%len(images)], pyramid)
		return nil
	}); err != nil {
		return err
	}
	if err := set("dpe.dense_encode_us", time.Microsecond, func(i int) error {
		_, err := in.cc.Dense().Encode(descs[i%len(descs)])
		return err
	}); err != nil {
		return err
	}
	sample := in.pool[0]
	plain, err := sample.obj.Marshal()
	if err != nil {
		return err
	}
	cipher := crypto.NewCipher(in.dataKey)
	if err := set("crypto.encrypt_us", time.Microsecond, func(int) error {
		_, err := cipher.Encrypt(plain)
		return err
	}); err != nil {
		return err
	}

	// Wire frames.
	repoID := in.repoIDs[0]
	updateReq := wire.UpdateReq{RepoID: repoID, Update: *sample.up}
	q := in.queries[0]
	hits, err := s.conns[0].Search(s.ctx, in.repoIDs[q.repo], q.q)
	if err != nil {
		return err
	}
	searchResp := wire.SearchResp{Hits: hits}
	frame := func(kind string, payload any) (*bytes.Buffer, error) {
		env, err := wire.NewEnvelope(kind, "", 1, 0, payload)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		_, err = wire.WriteEnvelope(&buf, env)
		return &buf, err
	}
	updateFrame, err := frame(wire.KindUpdate, updateReq)
	if err != nil {
		return err
	}
	searchFrame, err := frame(wire.KindSearch, wire.SearchReq{RepoID: in.repoIDs[q.repo], Query: *q.q})
	if err != nil {
		return err
	}
	respFrame, err := frame(wire.KindSearchResp, searchResp)
	if err != nil {
		return err
	}
	pl.set("wire.update_req_bytes", float64(updateFrame.Len()))
	pl.set("wire.search_req_bytes", float64(searchFrame.Len()))
	pl.set("wire.search_resp_bytes", float64(respFrame.Len()))

	var memStart, memEnd runtime.MemStats
	runtime.ReadMemStats(&memStart)
	encode := func(kind string, payload any) func(int) error {
		return func(int) error { _, err := frame(kind, payload); return err }
	}
	decode := func(buf *bytes.Buffer, into func() any) func(int) error {
		return func(int) error {
			env, _, err := wire.ReadFrame(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return err
			}
			return env.Decode(into())
		}
	}
	if err := set("wire.encode_update_us", time.Microsecond, encode(wire.KindUpdate, updateReq)); err != nil {
		return err
	}
	if err := set("wire.decode_update_us", time.Microsecond, decode(updateFrame, func() any { return new(wire.UpdateReq) })); err != nil {
		return err
	}
	if err := set("wire.encode_search_resp_us", time.Microsecond, encode(wire.KindSearchResp, searchResp)); err != nil {
		return err
	}
	if err := set("wire.decode_search_resp_us", time.Microsecond, decode(respFrame, func() any { return new(wire.SearchResp) })); err != nil {
		return err
	}
	runtime.ReadMemStats(&memEnd)
	// Four codec passes per iteration: two frames, each encoded and decoded.
	pl.set("wire.allocs_per_frame", float64(memEnd.Mallocs-memStart.Mallocs)/float64(4*iters))

	// WAL append at the update frame's size, without and with fsync.
	payload := updateFrame.Bytes()
	for _, m := range []struct {
		name string
		sync wal.SyncPolicy
	}{{"wal.append_us", wal.SyncNever}, {"wal.append_fsync_us", wal.SyncAlways}} {
		log, _, err := wal.Open(filepath.Join(root, m.name+".wal"), wal.Options{Sync: m.sync}, nil)
		if err != nil {
			return err
		}
		err = set(m.name, time.Microsecond, func(int) error { return log.Append(payload) })
		if err := errors.Join(err, log.Close()); err != nil {
			return err
		}
	}
	return nil
}

// layerRow is one line of the traced run's per-layer table: the median span
// of a stair and the self time left after the stairs below it.
type layerRow struct {
	Op     string  `json:"op"`
	Layer  string  `json:"layer"`
	SpanMs float64 `json:"span_ms"`
	SelfMs float64 `json:"self_ms"`
}

func (t *tracer) layerTable() []layerRow {
	var rows []layerRow
	for _, kind := range []string{"search", "update"} {
		self, _ := t.selfTimes(kind)
		for _, st := range searchOrder {
			rows = append(rows, layerRow{Op: kind, Layer: st, SpanMs: t.typical(kind, st), SelfMs: self[st]})
		}
	}
	return rows
}
