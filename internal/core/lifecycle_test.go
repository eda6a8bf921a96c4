package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mie/internal/wal"
	"mie/internal/wal/walfault"
)

// openMem opens an in-memory service via the unified constructor.
func openMem(t testing.TB) *Service {
	t.Helper()
	svc, _, err := OpenService(ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// ownedUpdate prepares a small text-only update owned by owner.
func ownedUpdate(t *testing.T, c *Client, id, owner, text string, key byte) *Update {
	t.Helper()
	up, err := c.PrepareUpdate(&Object{ID: id, Owner: owner, Text: text}, testDataKey(key))
	if err != nil {
		t.Fatal(err)
	}
	return up
}

func TestOpenServiceValidation(t *testing.T) {
	if _, _, err := OpenService(ServiceOptions{MemoryBudget: 1 << 20}); err == nil {
		t.Error("in-memory service with a memory budget should be rejected")
	}
	if _, _, err := OpenService(ServiceOptions{Dir: t.TempDir(), MemoryBudget: -1}); err == nil {
		t.Error("negative memory budget should be rejected")
	}
}

func TestColdActivationSingleFlight(t *testing.T) {
	dir := t.TempDir()
	c := testClient(t)
	{
		svc, _, err := OpenService(ServiceOptions{Dir: dir, Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		repo, err := svc.CreateRepository("cold", RepositoryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Update(ownedUpdate(t, c, "o1", "u", "cold start content", 1)); err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A budget makes the service start cold; this one is far above the
	// repository's footprint, so nothing is evicted during the herd.
	svc, report, err := OpenService(ServiceOptions{Dir: dir, Sync: wal.SyncNever, MemoryBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	if report.ColdRepositories != 1 {
		t.Fatalf("ColdRepositories = %d, want 1", report.ColdRepositories)
	}
	if st := svc.Lifecycle(); st.Active != 0 || st.Repositories != 1 {
		t.Fatalf("before touch: %+v, want 1 repository, 0 active", st)
	}

	// A herd of concurrent acquirers must trigger exactly one activation and
	// all observe the same engine instance.
	const herd = 16
	var wg sync.WaitGroup
	repos := make([]*Repository, herd)
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			repo, release, err := svc.Acquire("cold")
			if err != nil {
				errs[i] = err
				return
			}
			defer release()
			repos[i] = repo
			if _, _, err := repo.Get("o1"); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("acquirer %d: %v", i, errs[i])
		}
		if repos[i] != repos[0] {
			t.Fatalf("acquirer %d saw a different engine instance", i)
		}
	}
	if st := svc.Lifecycle(); st.Activations != 1 || st.Active != 1 {
		t.Errorf("after herd: activations = %d, active = %d; want 1, 1", st.Activations, st.Active)
	}
}

func TestMemoryBudgetEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	c := testClient(t)
	// Each repository costs at least repoBaseBytes resident; a budget of
	// ~1.5x that forces every second activation to evict the previous one.
	svc, _, err := OpenService(ServiceOptions{
		Dir:          dir,
		Sync:         wal.SyncNever,
		MemoryBudget: repoBaseBytes + repoBaseBytes/2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()

	ids := []string{"r0", "r1", "r2"}
	for i, id := range ids {
		repo, err := svc.CreateRepository(id, RepositoryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Update(ownedUpdate(t, c, "obj", "u", "budget pressure "+id, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch each repository once more; the budget admits one resident
	// repository at a time, so every touch beyond the first reactivates.
	for _, id := range ids {
		repo, release, err := svc.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := repo.Get("obj"); err != nil {
			t.Errorf("%s after churn: %v", id, err)
		}
		release()
	}
	st := svc.Lifecycle()
	if st.Evictions == 0 {
		t.Errorf("evictions = 0, want > 0 under budget %d with stats %+v", svc.MemoryBudget(), st)
	}
	if st.ResidentBytes > svc.MemoryBudget() {
		t.Errorf("resident %d exceeds budget %d after quiescence", st.ResidentBytes, svc.MemoryBudget())
	}
	if st.Active > 1 {
		t.Errorf("active = %d, want <= 1 under this budget", st.Active)
	}
}

func TestEvictRepositoryAndReactivate(t *testing.T) {
	dir := t.TempDir()
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	repo, err := svc.CreateRepository("cycle", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(ownedUpdate(t, c, "a", "u", "survives eviction", 1)); err != nil {
		t.Fatal(err)
	}

	// A pinned repository refuses eviction.
	pinned, release, err := svc.Acquire("cycle")
	if err != nil {
		t.Fatal(err)
	}
	if pinned != repo {
		t.Fatal("Acquire returned a different engine while resident")
	}
	if err := svc.EvictRepository("cycle"); err == nil {
		t.Error("evicting a pinned repository should fail")
	}
	release()

	if err := svc.EvictRepository("cycle"); err != nil {
		t.Fatal(err)
	}
	if st := svc.Lifecycle(); st.Active != 0 || st.Evictions != 1 {
		t.Fatalf("after evict: %+v, want 0 active, 1 eviction", st)
	}
	// Evicting a cold repository is a no-op.
	if err := svc.EvictRepository("cycle"); err != nil {
		t.Fatalf("evicting cold repository: %v", err)
	}
	if err := svc.EvictRepository("nope"); !errors.Is(err, ErrRepoNotFound) {
		t.Errorf("evicting unknown repository: err = %v, want ErrRepoNotFound", err)
	}

	back, release2, err := svc.Acquire("cycle")
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if back == repo {
		t.Error("reactivation returned the evicted engine instance")
	}
	if _, _, err := back.Get("a"); err != nil {
		t.Errorf("object lost across evict/reactivate: %v", err)
	}
	if st := svc.Lifecycle(); st.Activations != 1 {
		t.Errorf("activations = %d, want 1 (the reactivation)", st.Activations)
	}
}

func TestTenantObjectAndByteQuotas(t *testing.T) {
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Quotas: Quotas{MaxObjects: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	repo, err := svc.CreateRepository("q", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("o%d", i)
		if err := repo.Update(ownedUpdate(t, c, id, "alice", "within quota "+id, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	err = repo.Update(ownedUpdate(t, c, "o2", "alice", "over quota", 3))
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("third insert: err = %v, want ErrOverQuota", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("err %v does not carry *QuotaError", err)
	}
	if qe.Tenant != "alice" || qe.Resource != "objects" || qe.RetryAfter != 0 {
		t.Errorf("rejection = %+v, want tenant alice, resource objects, no retry hint", qe)
	}
	// A rejected update leaves no trace.
	if _, _, err := repo.Get("o2"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("rejected object is visible: err = %v", err)
	}
	if u := svc.Tenants().Usage("alice"); u.Objects != 2 {
		t.Errorf("usage after rejection = %+v, want 2 objects", u)
	}
	// Replacing an existing object is not growth and stays admitted; another
	// tenant is unaffected; freeing capacity re-admits.
	if err := repo.Update(ownedUpdate(t, c, "o1", "alice", "replaced in place", 4)); err != nil {
		t.Errorf("replace at quota: %v", err)
	}
	if err := repo.Update(ownedUpdate(t, c, "b0", "bob", "other tenant", 5)); err != nil {
		t.Errorf("second tenant blocked by first tenant's quota: %v", err)
	}
	if err := repo.Remove("o0"); err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(ownedUpdate(t, c, "o2", "alice", "fits after remove", 6)); err != nil {
		t.Errorf("insert after freeing capacity: %v", err)
	}
}

func TestTenantInflightQuota(t *testing.T) {
	svc, _, err := OpenService(ServiceOptions{Quotas: Quotas{MaxInflight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	gov := svc.Tenants()
	rel1, err := gov.Admit("carol")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := gov.Admit("carol")
	if err != nil {
		t.Fatal(err)
	}
	_, err = gov.Admit("carol")
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("third admit: err = %v, want ErrOverQuota", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "inflight" || qe.RetryAfter != inflightRetryAfter {
		t.Errorf("rejection = %+v, want inflight with retry-after %v", qe, inflightRetryAfter)
	}
	if _, err := gov.Admit("dave"); err != nil {
		t.Errorf("other tenant rejected: %v", err)
	}
	rel1()
	rel1() // idempotent
	if _, err := gov.Admit("carol"); err != nil {
		t.Errorf("admit after release: %v", err)
	}
	rel2()
}

func TestQuotaCreditsOnEviction(t *testing.T) {
	dir := t.TempDir()
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Dir: dir, Sync: wal.SyncNever, Quotas: Quotas{MaxObjects: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	repo, err := svc.CreateRepository("resident", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("o%d", i)
		if err := repo.Update(ownedUpdate(t, c, id, "erin", "resident footprint "+id, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if u := svc.Tenants().Usage("erin"); u.Objects != 3 {
		t.Fatalf("usage = %+v, want 3 objects", u)
	}
	if err := svc.EvictRepository("resident"); err != nil {
		t.Fatal(err)
	}
	// Quotas bound the resident footprint: eviction credits it back.
	if u := svc.Tenants().Usage("erin"); u.Objects != 0 || u.Bytes != 0 {
		t.Errorf("usage after eviction = %+v, want zero", u)
	}
	back, release, err := svc.Acquire("resident")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if u := svc.Tenants().Usage("erin"); u.Objects != 3 {
		t.Errorf("usage after reactivation = %+v, want 3 objects (recounted)", u)
	}
	if err := back.Update(ownedUpdate(t, c, "o3", "erin", "one more fits", 9)); err != nil {
		t.Errorf("insert within quota after reactivation: %v", err)
	}
}

// TestLifecycleChurnRace races Update/Get/Search traffic against forced
// eviction and reactivation, then compares the surviving state against an
// always-resident oracle. Run with -race this exercises the pin/evict
// synchronization; the oracle comparison catches lost acknowledged writes.
func TestLifecycleChurnRace(t *testing.T) {
	dir := t.TempDir()
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{
		Dir:          dir,
		Sync:         wal.SyncNever,
		MemoryBudget: 2 * repoBaseBytes, // keeps the evictor busy on 3 repos
	})
	if err != nil {
		t.Fatal(err)
	}
	repoIDs := []string{"w0", "w1", "w2"}
	for _, id := range repoIDs {
		if _, err := svc.CreateRepository(id, RepositoryOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// The oracle holds every acknowledged update, keyed repo/object.
	var oracleMu sync.Mutex
	oracle := make(map[string]string) // "repo/obj" -> text

	const (
		workers   = 4
		opsPerWkr = 60
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 977))
			for op := 0; op < opsPerWkr; op++ {
				repoID := repoIDs[rng.Intn(len(repoIDs))]
				objID := fmt.Sprintf("w%d-o%d", w, rng.Intn(8)) // worker-private id space
				repo, release, err := svc.Acquire(repoID)
				if err != nil {
					errCh <- fmt.Errorf("worker %d acquire %s: %w", w, repoID, err)
					return
				}
				switch rng.Intn(3) {
				case 0, 1:
					text := fmt.Sprintf("worker %d op %d payload", w, op)
					up, err := c.PrepareUpdate(&Object{ID: objID, Owner: "u", Text: text}, testDataKey(byte(w+1)))
					if err == nil {
						err = repo.Update(up)
					}
					if err != nil {
						release()
						errCh <- fmt.Errorf("worker %d update: %w", w, err)
						return
					}
					oracleMu.Lock()
					oracle[repoID+"/"+objID] = text
					oracleMu.Unlock()
				case 2:
					_, _, err := repo.Get(objID)
					if err != nil && !errors.Is(err, ErrUnknownObject) {
						release()
						errCh <- fmt.Errorf("worker %d get: %w", w, err)
						return
					}
				}
				release()
			}
		}(w)
	}
	// The churn goroutine forces evictions concurrently with the traffic.
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		rng := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := repoIDs[rng.Intn(len(repoIDs))]
			if err := svc.EvictRepository(id); err != nil && !strings.Contains(err.Error(), "pinned") {
				errCh <- fmt.Errorf("evict %s: %w", id, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-churnDone
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Every acknowledged write must be present with its last value — across
	// however many evict/reactivate cycles its repository went through.
	for key, want := range oracle {
		parts := strings.SplitN(key, "/", 2)
		repo, release, err := svc.Acquire(parts[0])
		if err != nil {
			t.Fatal(err)
		}
		ct, _, err := repo.Get(parts[1])
		release()
		if err != nil {
			t.Errorf("acknowledged object %s lost: %v", key, err)
			continue
		}
		obj, err := DecryptObject(ct, testDataKey(byte(parts[1][1]-'0'+1)))
		if err != nil {
			t.Errorf("decrypt %s: %v", key, err)
			continue
		}
		if obj.Text != want {
			t.Errorf("object %s: text %q, want %q", key, obj.Text, want)
		}
	}
	if st := svc.Lifecycle(); st.Evictions == 0 {
		t.Logf("note: churn produced no evictions (stats %+v)", st)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionAfterWALCrash simulates a power-style WAL failure underneath a
// live repository and then evicts it: the close fails, the eviction still
// completes, and reactivation restores every previously acknowledged
// mutation from the durable image.
func TestEvictionAfterWALCrash(t *testing.T) {
	dir := t.TempDir()
	disk := walfault.NewDisk()
	walFileOpener = func(p string) (wal.File, error) { return disk.Open(p) }
	t.Cleanup(func() { walFileOpener = nil })

	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Dir: dir}) // SyncAlways
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	repo, err := svc.CreateRepository("cm", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]string{
		"a": "alpha acknowledged before the crash",
		"b": "beta acknowledged before the crash",
	}
	keys := map[string]byte{"a": 1, "b": 2}
	for id, text := range texts {
		if err := repo.Update(ownedUpdate(t, c, id, "u", text, keys[id])); err != nil {
			t.Fatal(err)
		}
	}

	// Power cut on the WAL device: the log file freezes at its durable
	// prefix and every later operation on it fails.
	disk.File(filepath.Join(dir, walFileName("cm"))).Crash()

	// Eviction must proceed despite the failing close — the on-disk image
	// already holds everything that was acknowledged.
	if err := svc.EvictRepository("cm"); err != nil {
		t.Fatalf("evict with crashed WAL: %v", err)
	}
	if st := svc.Lifecycle(); st.Active != 0 {
		t.Fatalf("repository still active after eviction: %+v", st)
	}

	// Reactivation reopens the reincarnated WAL (its durable image) and
	// must replay both acknowledged mutations.
	back, release, err := svc.Acquire("cm")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for id, want := range texts {
		ct, _, err := back.Get(id)
		if err != nil {
			t.Errorf("acknowledged object %s lost across crash+eviction: %v", id, err)
			continue
		}
		obj, err := DecryptObject(ct, testDataKey(keys[id]))
		if err != nil {
			t.Errorf("decrypt %s: %v", id, err)
			continue
		}
		if obj.Text != want {
			t.Errorf("object %s: text %q, want %q", id, obj.Text, want)
		}
	}
}

func TestRepoIDFromStemRoundTrip(t *testing.T) {
	ids := []string{
		"plain",
		"CAPS-and_under0",
		"beta/with:odd chars",
		"spaces  doubled",
		"unicode-café-日本語",
		"%literal%percent",
		"trailing%",
	}
	for _, id := range ids {
		stem := repoFileStem(id)
		got, err := repoIDFromStem(stem)
		if err != nil {
			t.Errorf("id %q (stem %q): %v", id, stem, err)
			continue
		}
		if got != id {
			t.Errorf("id %q: round-tripped to %q via stem %q", id, got, stem)
		}
	}
	// Astral runes produce genuinely ambiguous stems (%1f600 is both U+1F600
	// and U+1F60 followed by a literal '0'); the inverse may pick either, but
	// whatever it picks must re-escape to the same stem, so the files still
	// resolve and the snapshot-id check catches any mismatch at load time.
	stem := repoFileStem("emoji-😀")
	got, err := repoIDFromStem(stem)
	if err != nil {
		t.Fatalf("astral stem %q: %v", stem, err)
	}
	if repoFileStem(got) != stem {
		t.Errorf("astral stem %q: decoded id %q does not re-escape to it", stem, got)
	}
	for _, bad := range []string{"%12", "%zzzz", "%"} {
		if _, err := repoIDFromStem(bad); err == nil {
			t.Errorf("stem %q: expected parse error", bad)
		}
	}
}

// gateInstall makes the next WAL open after arm() block until release().
// An install holds its entry's latch across that open (installImage opens
// the fresh log last), so a test can act while an install is in flight.
// The service captures the opener at OpenService: call this first.
func gateInstall(t *testing.T) (arm func(), reached <-chan struct{}, release func()) {
	var armed atomic.Bool
	hit, gate := make(chan struct{}), make(chan struct{})
	walFileOpener = func(p string) (wal.File, error) {
		if armed.CompareAndSwap(true, false) {
			close(hit)
			<-gate
		}
		return os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		walFileOpener = nil
	})
	return func() { armed.Store(true) }, hit, release
}

// snapshotImage is a leader's snapshot image of repository id holding one
// text object per given object id, all owned by "u".
func snapshotImage(t *testing.T, c *Client, id string, objs ...string) []byte {
	t.Helper()
	r, err := NewRepository(id, RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	for i, o := range objs {
		if err := r.Update(ownedUpdate(t, c, o, "u", "installed object "+o, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	var image bytes.Buffer
	if err := r.Snapshot(&image); err != nil {
		t.Fatal(err)
	}
	return image.Bytes()
}

// TestInstallSnapshotRacesAcquireHerd: acquirers of a cold repository that
// arrive while an install holds its latch wait for the install instead of
// loading the old files beside it — one engine, and no load but the
// install's.
func TestInstallSnapshotRacesAcquireHerd(t *testing.T) {
	arm, reached, release := gateInstall(t)
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Dir: t.TempDir(), Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	repo, err := svc.CreateRepository("herd", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(ownedUpdate(t, c, "old", "u", "before the install", 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.EvictRepository("herd"); err != nil {
		t.Fatal(err)
	}
	image := snapshotImage(t, c, "herd", "new")

	arm()
	installed := make(chan error, 1)
	go func() { installed <- svc.InstallSnapshot("herd", image) }()
	<-reached
	const herd = 16
	var wg sync.WaitGroup
	repos := make([]*Repository, herd)
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, rel, err := svc.Acquire("herd")
			if err == nil {
				repos[i] = r
				rel()
			}
			errs[i] = err
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let the herd reach the latch; the outcome must not depend on it
	release()
	if err := <-installed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("acquirer %d: %v", i, errs[i])
		}
		if repos[i] != repos[0] {
			t.Fatalf("acquirer %d saw a different engine instance", i)
		}
	}
	if _, _, err := repos[0].Get("new"); err != nil {
		t.Errorf("installed object: %v", err)
	}
	if _, _, err := repos[0].Get("old"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("object of the replaced incarnation: err = %v, want ErrUnknownObject", err)
	}
	if st := svc.Lifecycle(); st.Activations != 0 || st.Active != 1 {
		t.Errorf("after install + herd: %+v, want 0 activations, 1 active", st)
	}
}

// TestInstallSnapshotRacesDrop: a drop that arrives while an install holds
// the latch waits it out and then removes the installed repository — no
// resurrection, now or after a restart, and no files left behind.
func TestInstallSnapshotRacesDrop(t *testing.T) {
	arm, reached, release := gateInstall(t)
	c := testClient(t)
	dir := t.TempDir()
	svc, _, err := OpenService(ServiceOptions{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateRepository("gone", RepositoryOptions{}); err != nil {
		t.Fatal(err)
	}
	image := snapshotImage(t, c, "gone", "new")

	arm()
	installed := make(chan error, 1)
	go func() { installed <- svc.InstallSnapshot("gone", image) }()
	<-reached
	dropped := make(chan error, 1)
	go func() { dropped <- svc.DropRepository("gone") }()
	time.Sleep(10 * time.Millisecond) // let the drop reach the latch; the outcome must not depend on it
	release()
	if err := <-installed; err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := <-dropped; err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, _, err := svc.Acquire("gone"); !errors.Is(err, ErrRepoNotFound) {
		t.Errorf("acquire after drop: err = %v, want ErrRepoNotFound", err)
	}
	if st := svc.Lifecycle(); st.Repositories != 0 || st.Active != 0 {
		t.Errorf("after drop: %+v, want nothing hosted", st)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		t.Errorf("file left behind: %s", f.Name())
	}
	svc, _, err = OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	if got := svc.Repositories(); len(got) != 0 {
		t.Errorf("restart resurrected %v", got)
	}
}

// TestInstallSnapshotOverPinnedRepository: installing over a resident
// repository retires it while requests still pin it. Their searches finish
// against the old incarnation; the next Acquire sees the image, and the
// tenant's usage moves from the old objects to the new.
func TestInstallSnapshotOverPinnedRepository(t *testing.T) {
	arm, reached, release := gateInstall(t)
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Dir: t.TempDir(), Sync: wal.SyncNever, Quotas: Quotas{MaxObjects: 100}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	repo, err := svc.CreateRepository("pinned", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"o1", "o2"} {
		if err := repo.Update(ownedUpdate(t, c, id, "u", "pinned text "+id, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	old, releasePin, err := svc.Acquire("pinned")
	if err != nil {
		t.Fatal(err)
	}
	image := snapshotImage(t, c, "pinned", "n1")
	query := &Object{ID: "q", Text: "pinned text o1"}

	arm()
	installed := make(chan error, 1)
	go func() { installed <- svc.InstallSnapshot("pinned", image) }()
	<-reached // the old incarnation is retired, the new one not yet admitted
	if got := searchIDs(t, c, old, query, 2); len(got) == 0 || got[0] != "o1" {
		t.Errorf("search on the pinned old incarnation mid-install = %v, want o1 first", got)
	}
	release()
	if err := <-installed; err != nil {
		t.Fatal(err)
	}
	if got := searchIDs(t, c, old, query, 2); len(got) == 0 || got[0] != "o1" {
		t.Errorf("search on the pinned old incarnation after install = %v, want o1 first", got)
	}
	releasePin()

	fresh, rel, err := svc.Acquire("pinned")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if fresh == old {
		t.Fatal("Acquire after install returned the old engine")
	}
	if _, _, err := fresh.Get("n1"); err != nil {
		t.Errorf("installed object: %v", err)
	}
	if _, _, err := fresh.Get("o1"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("old object after install: err = %v, want ErrUnknownObject", err)
	}
	if u := svc.Tenants().Usage("u"); u.Objects != 1 {
		t.Errorf("usage after install = %+v, want 1 object (old credited, image counted)", u)
	}
	if st := svc.Lifecycle(); st.Active != 1 {
		t.Errorf("after install: %+v, want 1 active", st)
	}
}
