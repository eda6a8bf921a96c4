package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/wal"
)

// tenancyMemoryBudget is the resident-bytes cap the benchmark service runs
// under. At the per-repository floor (64 KiB) plus a few text objects it
// holds a couple hundred repositories resident — a small fraction of the
// hosted count, so most of the churn exercises the cold-activation path.
const tenancyMemoryBudget = int64(16 << 20)

// FairnessRow is one pass of the hot-tenant fairness phase: a saturating
// tenant hammers the service from many goroutines while a light tenant
// issues sequential requests, with per-tenant in-flight admission either off
// or capped.
type FairnessRow struct {
	// InflightQuota is Quotas.MaxInflight for the pass (0 = admission off).
	InflightQuota int   `json:"inflight_quota"`
	HotWorkers    int   `json:"hot_workers"`
	HotOps        int   `json:"hot_ops"`
	HotRejections int64 `json:"hot_rejections"`
	// HotOpsPerSec counts only admitted, completed hot operations.
	HotOpsPerSec float64 `json:"hot_ops_per_sec"`
	LightOps     int     `json:"light_ops"`
	LightP50Ms   float64 `json:"light_p50_ms"`
	LightP95Ms   float64 `json:"light_p95_ms"`
	LightP99Ms   float64 `json:"light_p99_ms"`
}

// TenancyReport is the BENCH_tenancy.json document: what it costs to host
// TenancyRepos repositories on one service with lazy activation and a
// memory budget a fraction of the total footprint.
type TenancyReport struct {
	// Seed is the dataset seed the run was generated from, recorded so a
	// published report pins the exact workload it measured.
	Seed              int64 `json:"seed"`
	Repos             int   `json:"repos"`
	SeedObjects       int   `json:"seed_objects"`
	MemoryBudgetBytes int64 `json:"memory_budget_bytes"`
	// SeedMs creates and populates every repository (under the same budget,
	// so seeding itself churns through eviction).
	SeedMs float64 `json:"seed_ms"`

	// Churn phase: random repository touches against the cold fleet.
	ChurnOps        int `json:"churn_ops"`
	ColdActivations int `json:"cold_activations"`
	WarmHits        int `json:"warm_hits"`
	// Cold-activation latency (Acquire on a cold repository: snapshot load
	// plus WAL replay, single-flight).
	ActivationP50Ms float64 `json:"activation_p50_ms"`
	ActivationP95Ms float64 `json:"activation_p95_ms"`
	ActivationP99Ms float64 `json:"activation_p99_ms"`
	// Warm Acquire latency (resident repository, pin only).
	WarmP50Ms float64 `json:"warm_p50_ms"`
	WarmP95Ms float64 `json:"warm_p95_ms"`

	// Steady-state footprint: the service's own resident accounting at the
	// end of the churn, the worst sample seen during it, and how far the
	// accounting ever overshot the budget (transient, while the eviction
	// pass caught up).
	SteadyResidentBytes   int64   `json:"steady_resident_bytes"`
	MaxResidentBytes      int64   `json:"max_resident_bytes"`
	MaxOverBudgetFraction float64 `json:"max_over_budget_fraction"`
	// HeapAllocBytes is runtime.ReadMemStats after a forced GC at the end
	// of the churn — the process-level check on the accounting.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	Activations    uint64 `json:"activations"`
	Evictions      uint64 `json:"evictions"`

	// Durability through churn: every acknowledged write (seed and churn)
	// is read back after the fleet has been evicted and reactivated under
	// it. LostAcks must be zero.
	AckedWrites int `json:"acked_writes"`
	LostAcks    int `json:"lost_acks"`

	Fairness []FairnessRow `json:"fairness"`
}

// tenancyClient builds the text-only MIE client the benchmark uploads
// through; image parameters are irrelevant but the client requires them.
func tenancyClient(cfg Config) (*core.Client, error) {
	return core.NewClient(core.ClientConfig{
		Key:     core.RepositoryKey{Master: masterKey(1)},
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 2048, Threshold: 0.5},
		Pyramid: cfg.pyramid(),
	})
}

func tenancyRepoID(i int) string { return fmt.Sprintf("tenant-repo-%05d", i) }

// TenancyExperiment measures the multi-tenant lifecycle at scale: it seeds
// cfg.TenancyRepos small repositories into dir, reopens the service with
// lazy activation under a memory budget far below the fleet's total
// footprint, churns random repositories through activation and eviction
// while measuring cold-start latency and resident accounting, verifies no
// acknowledged write was lost, and finally runs the hot-tenant fairness
// comparison with per-tenant in-flight admission off and on.
func TenancyExperiment(cfg Config, dir string) (*TenancyReport, error) {
	n := cfg.TenancyRepos
	if n <= 0 {
		return nil, errors.New("experiments: TenancyRepos must be positive")
	}
	client, err := tenancyClient(cfg)
	if err != nil {
		return nil, err
	}
	report := &TenancyReport{Seed: cfg.Seed, Repos: n, MemoryBudgetBytes: tenancyMemoryBudget}
	ropts := core.RepositoryOptions{Vocab: cfg.vocab()}

	// acked maps repository id -> object ids whose writes were acknowledged;
	// the read-back sweep at the end must find every one of them.
	acked := make(map[string][]string, n)

	// Seed: create every repository with two text objects, under the same
	// budget the churn will run under (SyncNever: the service is closed
	// cleanly, not crashed, so page-cache durability suffices and the WAL
	// fsync cost does not drown the lifecycle numbers).
	svc, _, err := core.OpenService(core.ServiceOptions{
		Dir:          dir,
		Sync:         wal.SyncNever,
		MemoryBudget: tenancyMemoryBudget,
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		id := tenancyRepoID(i)
		if _, err := svc.CreateRepository(id, ropts); err != nil {
			return nil, err
		}
		// Pin for the seed writes: under the budget the fresh repository may
		// otherwise be evicted between creation and its first update.
		repo, release, err := svc.Acquire(id)
		if err != nil {
			return nil, err
		}
		for j := 0; j < 2; j++ {
			objID := fmt.Sprintf("seed-%d", j)
			up, err := client.PrepareUpdate(&core.Object{
				ID:    objID,
				Owner: fmt.Sprintf("tenant-%d", i%16),
				Text:  fmt.Sprintf("seed document %d of repository %d", j, i),
			}, dataKey())
			if err != nil {
				release()
				return nil, err
			}
			if err := repo.Update(up); err != nil {
				release()
				return nil, fmt.Errorf("seed %s/%s: %w", id, objID, err)
			}
			acked[id] = append(acked[id], objID)
			report.SeedObjects++
		}
		release()
	}
	report.SeedMs = ms(time.Since(t0))
	if err := svc.Close(); err != nil {
		return nil, err
	}

	// Reopen under the budget: the whole fleet starts cold and activates on
	// first touch.
	svc, rec, err := core.OpenService(core.ServiceOptions{
		Dir:          dir,
		Sync:         wal.SyncNever,
		MemoryBudget: tenancyMemoryBudget,
	})
	if err != nil {
		return nil, err
	}
	if rec.ColdRepositories != n {
		return nil, fmt.Errorf("experiments: budgeted open discovered %d cold repositories, want %d", rec.ColdRepositories, n)
	}

	// Churn: 2N random touches, half against a small hot set so warm hits
	// happen despite the budget, 20% of them acknowledged writes.
	churn := 2 * n
	hotSet := n / 20
	if hotSet < 1 {
		hotSet = 1
	}
	if hotSet > 64 {
		hotSet = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 71))
	var coldDur, warmDur []time.Duration
	base := svc.Lifecycle()
	activations := base.Activations
	for op := 0; op < churn; op++ {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			i = rng.Intn(hotSet)
		}
		id := tenancyRepoID(i)
		t0 := time.Now()
		repo, release, err := svc.Acquire(id)
		acq := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("churn acquire %s: %w", id, err)
		}
		if op%5 == 0 {
			objID := fmt.Sprintf("churn-%d", op)
			up, err := client.PrepareUpdate(&core.Object{
				ID:    objID,
				Owner: fmt.Sprintf("tenant-%d", i%16),
				Text:  fmt.Sprintf("churn write %d into repository %d", op, i),
			}, dataKey())
			if err == nil {
				err = repo.Update(up)
			}
			if err != nil {
				release()
				return nil, fmt.Errorf("churn write %s/%s: %w", id, objID, err)
			}
			acked[id] = append(acked[id], objID)
		} else if _, _, err := repo.Get(acked[id][0]); err != nil {
			release()
			return nil, fmt.Errorf("churn read %s: %w", id, err)
		}
		release()
		st := svc.Lifecycle()
		if st.Activations > activations {
			coldDur = append(coldDur, acq)
		} else {
			warmDur = append(warmDur, acq)
		}
		activations = st.Activations
		if st.ResidentBytes > report.MaxResidentBytes {
			report.MaxResidentBytes = st.ResidentBytes
		}
	}
	report.ChurnOps = churn
	report.ColdActivations = len(coldDur)
	report.WarmHits = len(warmDur)
	report.ActivationP50Ms = percentileMs(coldDur, 0.50)
	report.ActivationP95Ms = percentileMs(coldDur, 0.95)
	report.ActivationP99Ms = percentileMs(coldDur, 0.99)
	report.WarmP50Ms = percentileMs(warmDur, 0.50)
	report.WarmP95Ms = percentileMs(warmDur, 0.95)
	if over := report.MaxResidentBytes - tenancyMemoryBudget; over > 0 {
		report.MaxOverBudgetFraction = float64(over) / float64(tenancyMemoryBudget)
	}
	end := svc.Lifecycle()
	report.SteadyResidentBytes = end.ResidentBytes
	report.Activations = end.Activations - base.Activations
	report.Evictions = end.Evictions
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	report.HeapAllocBytes = mem.HeapAlloc

	// Read back every acknowledged write through the lifecycle that churned
	// beneath it.
	for id, objs := range acked {
		repo, release, err := svc.Acquire(id)
		if err != nil {
			report.LostAcks += len(objs)
			report.AckedWrites += len(objs)
			continue
		}
		for _, objID := range objs {
			report.AckedWrites++
			if _, _, err := repo.Get(objID); err != nil {
				report.LostAcks++
			}
		}
		release()
	}
	if err := svc.Close(); err != nil {
		return nil, err
	}

	// Fairness: one saturating tenant vs one light tenant, admission off
	// then capped. The light tenant's tail latency is the number that the
	// in-flight quota exists to protect.
	for _, quota := range []int{0, 2} {
		row, err := tenancyFairness(cfg, client, dir, n, quota)
		if err != nil {
			return nil, err
		}
		report.Fairness = append(report.Fairness, *row)
	}
	return report, nil
}

// tenancyFairness reopens the seeded fleet and races a hot tenant — a bulk
// uploader writing from many goroutines — against a light tenant issuing
// sequential reads, both going through the same admission path the server
// uses. inflightQuota 0 runs with admission disabled.
func tenancyFairness(cfg Config, client *core.Client, dir string, n, inflightQuota int) (*FairnessRow, error) {
	const hotWorkers = 8
	hotOpsPerWorker := n / hotWorkers
	if hotOpsPerWorker > 150 {
		hotOpsPerWorker = 150
	}
	if hotOpsPerWorker < 25 {
		hotOpsPerWorker = 25
	}
	lightOps := hotOpsPerWorker

	svc, _, err := core.OpenService(core.ServiceOptions{
		Dir:          dir,
		Sync:         wal.SyncNever,
		MemoryBudget: tenancyMemoryBudget,
		Quotas:       core.Quotas{MaxInflight: inflightQuota},
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = svc.Close() }()
	gov := svc.Tenants()

	// touch is one admitted request: reserve the tenant's in-flight slot
	// (retrying per the server's hint on rejection), acquire a random
	// repository and perform the tenant's operation against it — a write for
	// the hot bulk uploader, a read of the seed object for the light tenant.
	touch := func(tenant string, write *core.Update, rng *rand.Rand, rejections *atomic.Int64) error {
		var release func()
		for {
			var err error
			if release, err = gov.Admit(tenant); err == nil {
				break
			}
			var qe *core.QuotaError
			if !errors.As(err, &qe) {
				return err
			}
			if rejections != nil {
				rejections.Add(1)
			}
			time.Sleep(qe.RetryAfter)
		}
		defer release()
		id := tenancyRepoID(rng.Intn(n))
		repo, done, err := svc.Acquire(id)
		if err != nil {
			return fmt.Errorf("fairness acquire %s: %w", id, err)
		}
		defer done()
		if write != nil {
			if err := repo.Update(write); err != nil {
				return fmt.Errorf("fairness write %s: %w", id, err)
			}
		} else if _, _, err := repo.Get("seed-0"); err != nil {
			return fmt.Errorf("fairness read %s: %w", id, err)
		}
		return nil
	}

	row := &FairnessRow{
		InflightQuota: inflightQuota,
		HotWorkers:    hotWorkers,
		HotOps:        hotWorkers * hotOpsPerWorker,
		LightOps:      lightOps,
	}
	var rejections atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, hotWorkers)
	hotStart := time.Now()
	for w := 0; w < hotWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(1000+w)))
			for op := 0; op < hotOpsPerWorker; op++ {
				// The upload is prepared client-side, outside the admitted
				// window — only the server-side work holds the slot.
				up, err := client.PrepareUpdate(&core.Object{
					ID:    fmt.Sprintf("hot-%d-%d-%d", inflightQuota, w, op),
					Owner: "hot",
					Text:  fmt.Sprintf("bulk upload %d from worker %d", op, w),
				}, dataKey())
				if err == nil {
					err = touch("hot", up, rng, &rejections)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	lightRng := rand.New(rand.NewSource(cfg.Seed + 2000))
	lightDur := make([]time.Duration, 0, lightOps)
	var lightErr error
	for op := 0; op < lightOps; op++ {
		t0 := time.Now()
		if lightErr = touch("light", nil, lightRng, nil); lightErr != nil {
			break
		}
		lightDur = append(lightDur, time.Since(t0))
	}
	wg.Wait()
	hotWall := time.Since(hotStart)
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	if lightErr != nil {
		return nil, lightErr
	}
	row.HotRejections = rejections.Load()
	row.HotOpsPerSec = float64(row.HotOps) / hotWall.Seconds()
	row.LightP50Ms = percentileMs(lightDur, 0.50)
	row.LightP95Ms = percentileMs(lightDur, 0.95)
	row.LightP99Ms = percentileMs(lightDur, 0.99)
	return row, nil
}

// percentileMs returns the q-th percentile of ds in milliseconds (nearest
// rank); 0 for an empty slice.
func percentileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return ms(sorted[idx])
}

// WriteTenancyReport renders the report for stdout.
func WriteTenancyReport(w io.Writer, r *TenancyReport) {
	fmt.Fprintf(w, "Multi-tenancy: %d repositories, %d MiB memory budget, lazy activation (seed %d)\n",
		r.Repos, r.MemoryBudgetBytes>>20, r.Seed)
	fmt.Fprintf(w, "  seed: %d objects in %.0f ms\n", r.SeedObjects, r.SeedMs)
	fmt.Fprintf(w, "  churn: %d ops -> %d cold activations, %d warm hits; %d evictions\n",
		r.ChurnOps, r.ColdActivations, r.WarmHits, r.Evictions)
	fmt.Fprintf(w, "  cold activation p50/p95/p99: %.3f / %.3f / %.3f ms; warm acquire p50/p95: %.3f / %.3f ms\n",
		r.ActivationP50Ms, r.ActivationP95Ms, r.ActivationP99Ms, r.WarmP50Ms, r.WarmP95Ms)
	fmt.Fprintf(w, "  resident: steady %.1f MiB, max %.1f MiB (over budget by %.1f%% at worst); heap after GC %.1f MiB\n",
		float64(r.SteadyResidentBytes)/(1<<20), float64(r.MaxResidentBytes)/(1<<20),
		100*r.MaxOverBudgetFraction, float64(r.HeapAllocBytes)/(1<<20))
	fmt.Fprintf(w, "  durability: %d acked writes, %d lost\n", r.AckedWrites, r.LostAcks)
	for _, f := range r.Fairness {
		quota := "off"
		if f.InflightQuota > 0 {
			quota = fmt.Sprintf("%d", f.InflightQuota)
		}
		fmt.Fprintf(w, "  fairness (inflight quota %s): hot %d workers %.1f ops/s (%d rejections); light p50/p95/p99 %.3f / %.3f / %.3f ms\n",
			quota, f.HotWorkers, f.HotOpsPerSec, f.HotRejections, f.LightP50Ms, f.LightP95Ms, f.LightP99Ms)
	}
}
