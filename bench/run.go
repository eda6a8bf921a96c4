package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mie/internal/core"
	"mie/internal/obs"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what one workload run is given.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	sc      scale
	// dataDir receives the deployment's directories; the run removes what
	// it creates there. traceDir receives trace-<workload>.jsonl.
	dataDir  string
	traceDir string
}

// result is one workload run: the stamped envelope appended to the history
// file, carrying the metrics named in BENCHMARK.json (end-to-end for an
// untraced run, per-layer for a traced one) and unbounded diagnostics.
type result struct {
	Schema     int       `json:"schema"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Start      time.Time `json:"start"`
	WallS      float64   `json:"wall_s"`

	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Clients   int     `json:"clients"`
	Constants scale   `json:"constants"`
	OpHash    string  `json:"op_hash"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	EndToEnd    map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Diagnostics map[string]metricValue `json:"diagnostics,omitempty"`

	// Layers is the traced run's staircase table; TraceFile holds its spans.
	Layers    []layerRow `json:"layers,omitempty"`
	TraceFile string     `json:"trace_file,omitempty"`
}

// metricSet collects values against a fixed list of specs; setting a name
// outside the list, or twice, is a bug in the benchmark.
type metricSet struct {
	specs  map[string]metricSpec
	values map[string]metricValue
}

func newMetricSet(specs []metricSpec) *metricSet {
	m := &metricSet{specs: make(map[string]metricSpec, len(specs)), values: make(map[string]metricValue, len(specs))}
	for _, sp := range specs {
		m.specs[sp.Name] = sp
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	sp, ok := m.specs[name]
	if !ok {
		panic("bench: metric " + name + " is not in the specification")
	}
	if _, dup := m.values[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	m.values[name] = metricValue{Value: v, Unit: sp.Unit}
}

// complete reports specified metrics that were never set or hold a value
// JSON cannot carry.
func (m *metricSet) complete() error {
	var bad []string
	for name := range m.specs {
		v, ok := m.values[name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics unset or not finite: %v", bad)
	}
	return nil
}

// runWorkload runs one workload once and returns its stamped result. An
// error means the run could not be carried out at all; failed operations and
// failed checks are counted in the result instead.
func runWorkload(cfg runConfig, workload string) (*result, error) {
	start := time.Now()
	res := stamp(cfg, workload, start)
	fails := &failures{}
	speed := startSpeedometer()
	defer speed.Close()

	in, err := prepareInputs(workload, cfg.seed, cfg.sc)
	if err != nil {
		return nil, err
	}
	res.Clients, res.OpHash = in.clients, in.opHash
	diag := map[string]metricValue{"prepare_inputs_s": {time.Since(start).Seconds(), "s"}}

	root, err := os.MkdirTemp(cfg.dataDir, workload+"-")
	if err != nil {
		return nil, fmt.Errorf("create data directory: %w", err)
	}
	defer os.RemoveAll(root)

	if cfg.trace {
		err = runTraced(cfg, in, root, fails, res, diag)
	} else {
		err = runEndToEnd(cfg, in, root, start, speed, fails, res, diag)
	}
	if err != nil {
		return nil, err
	}
	res.Diagnostics = diag
	res.Failed = fails.n()
	res.Failures = fails.first
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// runEndToEnd is the untraced run: set-up, the timed closed loop, then
// recovery and the correctness checks. start is when the workload began;
// setup_s runs from there — generating and encoding the inputs included — to
// the first timed operation. Every time metric is divided by the slowdown
// the speedometer saw during the phase it measures (see speed.go); the
// figures as measured are diagnostics.
func runEndToEnd(cfg runConfig, in *inputs, root string, start time.Time, speed *speedometer, fails *failures, res *result, diag map[string]metricValue) (err error) {
	s, err := setUp(filepath.Join(root, "setup"), in, fails, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, s.Close()) }()
	setupEnd := time.Now()
	// The live heap is read here, after a fixed stretch of operations, and
	// not after the timed run, where it would grow with the run's speed.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	walFsyncs := obs.Default().Counter("wal_fsyncs").Value()
	follower0, leader0 := s.followerSearches(), s.leaderSearches()
	timedStart := time.Now()
	run := s.runTimed(time.Duration(cfg.seconds * float64(time.Second)))
	timedEnd := time.Now()
	followerServed, leaderServed := s.followerSearches()-follower0, s.leaderSearches()-leader0
	if obs.Default().Counter("wal_fsyncs").Value() == walFsyncs && len(run.ms[opUpdate]) > 0 {
		fails.add("acknowledged %d updates at sync=always without a single fsync", len(run.ms[opUpdate]))
	}

	catchUp, err := s.d.waitCaughtUp(in.repoIDs, time.Minute)
	if err != nil {
		return err
	}
	rec, err := recoverCopy(s.d.leaderDir(), filepath.Join(root, "recovered"))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, rec.svc.Close()) }()
	checks := s.verifyStored(rec.svc, diag) + s.verifyReads(diag)

	completed := float64(run.completed())
	if completed == 0 {
		return fmt.Errorf("no operation of %d completed: %v", run.attempted, fails.first)
	}
	var all []float64
	for _, samples := range run.ms {
		all = append(all, samples...)
	}
	all = sortedCopy(all)
	p50, err := percentile(all, 0.50)
	if err != nil {
		return err
	}
	p95, err := percentile(all, 0.95)
	if err != nil {
		return err
	}

	raw := map[string]float64{
		"setup_s":       setupEnd.Sub(start).Seconds(),
		"ops_per_s":     completed / run.wallS,
		"op_p50_ms":     p50,
		"op_p95_ms":     p95,
		"cpu_ms_per_op": run.cpuMs / completed,
	}
	slowSetup, slowTimed := speed.slowdown(start, setupEnd), speed.slowdown(timedStart, timedEnd)
	e2e := newMetricSet(endToEndSpecs)
	e2e.set("setup_s", raw["setup_s"]/slowSetup)
	e2e.set("ops_per_s", raw["ops_per_s"]*slowTimed)
	e2e.set("op_p50_ms", raw["op_p50_ms"]/slowTimed)
	e2e.set("op_p95_ms", raw["op_p95_ms"]/slowTimed)
	e2e.set("cpu_ms_per_op", raw["cpu_ms_per_op"]/slowTimed)
	e2e.set("bytes_per_op", float64(s.warmBytes)/float64(s.warmOps))
	e2e.set("heap_live_mb", float64(ms.HeapAlloc)/1e6)
	e2e.set("disk_bytes_per_user_byte", float64(rec.dirBytes)/float64(s.userBytes.Load()))
	if err := e2e.complete(); err != nil {
		return err
	}
	res.EndToEnd = e2e.values
	res.Attempted = s.warmOps + run.attempted + checks

	// Diagnostics: the time metrics as measured, single samples, per-kind
	// splits and counter ratios that explain the bounded metrics but are not
	// gated themselves.
	for name, v := range raw {
		diag["raw_"+name] = metricValue{v, e2e.specs[name].Unit}
	}
	diag["slowdown_setup"] = metricValue{slowSetup, "ratio"}
	diag["slowdown_timed"] = metricValue{slowTimed, "ratio"}
	for name, v := range s.phaseS {
		diag["setup_"+name+"_s"] = metricValue{v, "s"}
	}
	diag["timed_wall_s"] = metricValue{run.wallS, "s"}
	diag["timed_ops"] = metricValue{completed, "count"}
	diag["max_ms"] = metricValue{all[len(all)-1], "ms"}
	for k, samples := range run.ms {
		sorted := sortedCopy(samples)
		for _, p := range []float64{0.50, 0.95, 0.99} {
			if v, err := percentile(sorted, p); err == nil {
				diag[fmt.Sprintf("%s_p%g_ms", opKind(k), p*100)] = metricValue{v, "ms"}
			}
		}
		if len(samples) > 0 {
			diag[opKind(k).String()+"_ops"] = metricValue{float64(len(samples)), "count"}
		}
	}
	if run.trainS > 0 {
		diag["train_s"] = metricValue{run.trainS, "s"}
	}
	if followerServed+leaderServed > 0 {
		diag["follower_read_share"] = metricValue{float64(followerServed) / float64(followerServed+leaderServed), "ratio"}
	}
	diag["catchup_ms"] = metricValue{catchUp.Seconds() * 1e3, "ms"}
	diag["recovery_s"] = metricValue{rec.openS, "s"}
	diag["recovery_us_per_record"] = metricValue{rec.openS * 1e6 / float64(rec.report.ReplayedRecords), "us"}
	diag["recovery_replayed_records"] = metricValue{float64(rec.report.ReplayedRecords), "count"}
	diag["allocs_per_op"] = metricValue{float64(run.mallocs) / completed, "count"}
	diag["alloc_bytes_per_op"] = metricValue{float64(run.allocBytes) / completed, "B"}
	diag["gc_pause_ms"] = metricValue{run.gcPauseMs, "ms"}
	return nil
}

// recovered is a reopened live copy of the leader's data directory.
type recovered struct {
	svc      *core.Service
	report   *core.RecoveryReport
	openS    float64
	dirBytes int64
}

// recoverCopy copies the leader's directory while the leader keeps running —
// what a crash would leave behind, given that every acknowledged mutation
// was fsynced first — and opens the copy: snapshot load plus WAL replay.
// Opening replays the log without rewriting it, so the copy is opened three
// times and openS is the median; the last service stays open for the checks.
func recoverCopy(leaderDir, dst string) (*recovered, error) {
	n, err := copyDir(leaderDir, dst)
	if err != nil {
		return nil, fmt.Errorf("copy leader directory: %w", err)
	}
	rec := &recovered{dirBytes: n}
	var openS []float64
	for i := 0; i < 3; i++ {
		if rec.svc != nil {
			if err := rec.svc.Close(); err != nil {
				return nil, fmt.Errorf("close recovered copy: %w", err)
			}
		}
		start := time.Now()
		svc, report, err := core.OpenService(core.ServiceOptions{Dir: dst})
		openS = append(openS, time.Since(start).Seconds())
		if err == nil && report.ReplayedRecords == 0 {
			err = errors.New("no WAL record replayed")
		}
		if err != nil {
			if svc != nil {
				_ = svc.Close()
			}
			return nil, fmt.Errorf("recover copy of leader directory: %w", err)
		}
		rec.svc, rec.report = svc, report
	}
	rec.openS = medianOf(openS)
	return rec, nil
}

// copyDir copies the regular files of src (one level, which is all a service
// directory has) into dst and returns the bytes copied.
func copyDir(src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	var total int64
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		n, err := io.Copy(out, in)
		total += n
		return errors.Join(err, out.Close())
	})
	return total, err
}

// verifyStored checks what the deployment holds after the run against what
// it acknowledged, and returns how many checks it made; violations are
// counted as failures.
//
//   - Every id in the ledger of acknowledged mutations is checked against
//     the recovered copy of the leader directory: written ids present with
//     the exact acknowledged ciphertext (presence only where the public
//     handle encrypted it), removed ids absent, sizes equal.
//   - The caught-up follower holds as many objects as the leader.
//   - Searches for an object the same client added earlier found it
//     (mobile-mixed), within the share checkFoundShare allows.
func (s *session) verifyStored(recoveredSvc *core.Service, diag map[string]metricValue) int {
	in := s.in
	checks := 0

	ledger := make(map[string]int)
	for _, l := range s.ledgers {
		for id, state := range l {
			ledger[id] = state
		}
	}
	checks += len(ledger)
	size := 0
	repos := make([]*core.Repository, len(in.repoIDs))
	for r, id := range in.repoIDs {
		repo, err := recoveredSvc.Repository(id)
		if err != nil {
			s.fails.add("recovered copy lost repository %s: %v", id, err)
			return checks
		}
		repos[r] = repo
		size += repo.Size()
	}
	get := func(id string) ([]byte, error) {
		var ct []byte
		err := core.ErrUnknownObject
		for _, repo := range repos {
			if ct, _, err = repo.Get(id); err == nil {
				return ct, nil
			}
		}
		return nil, err
	}
	want := func(itemIdx int) []byte {
		if in.viaHandle {
			return nil
		}
		return in.pool[itemIdx].up.Ciphertext
	}
	for _, err := range checkLedger(ledger, size, get, want) {
		s.fails.add("recovered copy: %v", err)
	}

	for r, id := range in.repoIDs {
		checks++
		lrepo, lrel, lerr := s.leaderRepo(r)
		frepo, frel, ferr := s.d.followerSvc.Acquire(id)
		if lerr != nil || ferr != nil {
			s.fails.add("acquire %s: leader %v, follower %v", id, lerr, ferr)
		} else if lrepo.Size() != frepo.Size() {
			s.fails.add("%s: follower holds %d objects, leader %d", id, frepo.Size(), lrepo.Size())
		}
		if lerr == nil {
			lrel()
		}
		if ferr == nil {
			frel()
		}
	}

	if looked := int(s.rywLooked.Load()); looked > 0 {
		checks++
		diag["read_your_writes_found_share"] = metricValue{float64(s.rywFound.Load()) / float64(looked), "ratio"}
		if err := checkFoundShare("searches for the client's own earlier adds", int(s.rywFound.Load()), looked); err != nil {
			s.fails.add("%v", err)
		}
	}
	return checks
}

// verifyReads is the read workloads' check of what searches return: sampled
// queries are re-issued through the router and in process on leader and
// follower; the ranked lists must agree and self-queries return their source
// object, within the shares checkParityShare and checkFoundShare allow. It
// returns how many checks it made.
func (s *session) verifyReads(diag map[string]metricValue) int {
	in := s.in
	if !in.readOnly {
		return 0
	}
	rng := rand.New(rand.NewSource(in.seed ^ 0x5eed))
	samples, stable, mismatched, selfHits := in.sc.ParitySamples, 0, 0, 0
	for i := 0; i < samples; i++ {
		q := in.queries[rng.Intn(len(in.queries))]
		paths, leaderStable, err := s.searchEverywhere(q)
		if err != nil {
			s.fails.add("parity query on %s: %v", in.repoIDs[q.repo], err)
			continue
		}
		if hasObject(paths["router"], q.source) {
			selfHits++
		}
		if !leaderStable {
			continue
		}
		stable++
		if checkParity(paths) != nil {
			mismatched++
		}
	}
	diag["parity_stable_share"] = metricValue{float64(stable) / float64(samples), "ratio"}
	diag["parity_mismatch_share"] = metricValue{float64(mismatched) / float64(samples), "ratio"}
	diag["self_query_found_share"] = metricValue{float64(selfHits) / float64(samples), "ratio"}
	if err := checkParityShare(mismatched, stable); err != nil {
		s.fails.add("%v", err)
	}
	if err := checkFoundShare("self-queries", selfHits, samples); err != nil {
		s.fails.add("%v", err)
	}
	return 2
}

// searchEverywhere answers q through the router and in process on both
// nodes. The leader is asked three times; leaderStable reports whether its
// three answers were identical, which marks the query as stable enough to
// compare across paths (see maxParityMismatchShare).
func (s *session) searchEverywhere(q query) (paths map[string][]core.SearchHit, leaderStable bool, err error) {
	id := s.in.repoIDs[q.repo]
	paths = make(map[string][]core.SearchHit, 3)
	if paths["router"], err = s.conns[0].Search(s.ctx, id, q.q); err != nil {
		return nil, false, fmt.Errorf("router: %w", err)
	}
	inProcess := func(svc *core.Service) ([]core.SearchHit, error) {
		repo, release, err := svc.Acquire(id)
		if err != nil {
			return nil, err
		}
		defer release()
		return repo.SearchContext(s.ctx, q.q)
	}
	if paths["follower"], err = inProcess(s.d.followerSvc); err != nil {
		return nil, false, fmt.Errorf("follower: %w", err)
	}
	leaderStable = true
	for i := 0; i < 3; i++ {
		hits, err := inProcess(s.d.leaderSvc)
		if err != nil {
			return nil, false, fmt.Errorf("leader: %w", err)
		}
		if i == 0 {
			paths["leader"] = hits
		} else if !sameHits(paths["leader"], hits) {
			leaderStable = false
		}
	}
	return paths, leaderStable, nil
}
