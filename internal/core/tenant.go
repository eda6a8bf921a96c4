package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mie/internal/obs"
)

// ErrOverQuota is the sentinel wrapped by every quota rejection, so callers
// can test with errors.Is regardless of which resource ran out.
var ErrOverQuota = errors.New("core: tenant over quota")

// Quotas bounds what one tenant (for stored objects the object's Owner, for
// requests the user the server's authorizer verified) may hold resident and
// have in flight. A zero field means that resource is unlimited; the zero value
// disables admission control entirely.
//
// Objects and bytes quotas bound the tenant's footprint across the
// *resident* (active) repositories of a service: activation charges the
// tenant for every object it owns in the loaded repository, eviction
// credits them back. That is the resource admission control protects — the
// memory of this server — and it keeps accounting exact without a durable
// per-tenant ledger. In-flight quotas bound concurrent requests admitted on
// behalf of one verified user.
type Quotas struct {
	// MaxObjects caps the stored objects owned by one tenant across active
	// repositories.
	MaxObjects int64
	// MaxBytes caps the approximate resident bytes owned by one tenant
	// across active repositories.
	MaxBytes int64
	// MaxInflight caps concurrent in-flight requests per tenant.
	MaxInflight int
}

// zero reports whether no quota is configured.
func (q Quotas) zero() bool { return q == Quotas{} }

// inflightRetryAfter is the retry hint attached to in-flight rejections: a
// slot frees as soon as any of the tenant's admitted requests completes.
const inflightRetryAfter = 50 * time.Millisecond

// QuotaError is the typed rejection carried to the client (the wire encodes
// its code and retry-after hint). It wraps ErrOverQuota.
type QuotaError struct {
	// Tenant is the principal that exceeded its quota.
	Tenant string
	// Resource is "objects", "bytes" or "inflight".
	Resource string
	// Limit is the configured cap, Used the tenant's level at rejection
	// time (both in the resource's unit).
	Limit, Used int64
	// RetryAfter is the server's hint for when a retry may be admitted.
	// Zero means retrying will not help until the tenant frees capacity
	// (removes objects); in-flight rejections carry a short positive hint.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("core: tenant %q over %s quota (%d of %d)", e.Tenant, e.Resource, e.Used, e.Limit)
}

// Unwrap makes errors.Is(err, ErrOverQuota) hold for every quota rejection.
func (e *QuotaError) Unwrap() error { return ErrOverQuota }

// TenantUsage is one tenant's current footprint as the governor sees it.
type TenantUsage struct {
	// Objects and Bytes are the tenant's stored objects and approximate
	// resident bytes across the service's active repositories.
	Objects, Bytes int64
	// Inflight is the number of currently admitted requests.
	Inflight int
}

func (u TenantUsage) empty() bool { return u == TenantUsage{} }

// TenantGovernor enforces per-tenant admission quotas for one service. All
// methods are safe for concurrent use; nil receivers are inert, so callers
// can hold a nil governor when no quotas are configured.
type TenantGovernor struct {
	quotas Quotas

	mu    sync.Mutex
	usage map[string]TenantUsage

	rejections *obs.Counter
}

func newTenantGovernor(q Quotas) *TenantGovernor {
	if q.zero() {
		return nil
	}
	return &TenantGovernor{
		quotas:     q,
		usage:      make(map[string]TenantUsage),
		rejections: obs.Default().Counter("tenant_rejections_total"),
	}
}

// reject records a rejection in the process registry (total plus a
// per-resource breakdown) and builds the typed error.
func (g *TenantGovernor) reject(tenant, resource string, limit, used int64, retry time.Duration) *QuotaError {
	g.rejections.Inc()
	obs.Default().Counter(obs.L("tenant_rejections_total", "resource", resource)).Inc()
	return &QuotaError{Tenant: tenant, Resource: resource, Limit: limit, Used: used, RetryAfter: retry}
}

// set stores u under tenant, deleting empty entries so the map does not
// accumulate one key per tenant ever seen. Callers hold g.mu.
func (g *TenantGovernor) set(tenant string, u TenantUsage) {
	if u.empty() {
		delete(g.usage, tenant)
		return
	}
	g.usage[tenant] = u
}

// Admit reserves an in-flight slot for tenant, returning the release that
// frees it. The server calls it once per request, after authorizing it and
// before any engine work.
func (g *TenantGovernor) Admit(tenant string) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	g.mu.Lock()
	u := g.usage[tenant]
	if max := g.quotas.MaxInflight; max > 0 && u.Inflight >= max {
		g.mu.Unlock()
		return nil, g.reject(tenant, "inflight", int64(max), int64(u.Inflight), inflightRetryAfter)
	}
	u.Inflight++
	g.set(tenant, u)
	g.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			u := g.usage[tenant]
			u.Inflight--
			g.set(tenant, u)
			g.mu.Unlock()
		})
	}, nil
}

// chargeUpdate atomically checks and applies the footprint delta of one
// Update: the new owner is charged for the incoming object, and — on a
// replace — the previous owner is credited for the object going away.
// Credits are always applied; only the charge can be rejected. The caller
// undoes a successful charge with undoUpdate if the mutation later fails.
func (g *TenantGovernor) chargeUpdate(owner string, newBytes int64, prevOwner string, prevBytes int64, replaced bool) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.usage[owner]
	projObjects, projBytes := u.Objects+1, u.Bytes+newBytes
	if replaced && prevOwner == owner {
		projObjects--
		projBytes -= prevBytes
	}
	if max := g.quotas.MaxObjects; max > 0 && projObjects > max {
		return g.reject(owner, "objects", max, u.Objects, 0)
	}
	if max := g.quotas.MaxBytes; max > 0 && projBytes > max {
		return g.reject(owner, "bytes", max, u.Bytes, 0)
	}
	u.Objects, u.Bytes = projObjects, projBytes
	g.set(owner, u)
	if replaced && prevOwner != owner {
		pu := g.usage[prevOwner]
		pu.Objects--
		pu.Bytes -= prevBytes
		g.set(prevOwner, pu)
	}
	return nil
}

// undoUpdate reverses a successful chargeUpdate whose mutation the WAL then
// refused.
func (g *TenantGovernor) undoUpdate(owner string, newBytes int64, prevOwner string, prevBytes int64, replaced bool) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.usage[owner]
	u.Objects--
	u.Bytes -= newBytes
	if replaced && prevOwner == owner {
		u.Objects++
		u.Bytes += prevBytes
	}
	g.set(owner, u)
	if replaced && prevOwner != owner {
		pu := g.usage[prevOwner]
		pu.Objects++
		pu.Bytes += prevBytes
		g.set(prevOwner, pu)
	}
}

// creditRemove releases one removed object's footprint.
func (g *TenantGovernor) creditRemove(owner string, bytes int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.usage[owner]
	u.Objects--
	u.Bytes -= bytes
	g.set(owner, u)
}

// addRepo charges every object of a repository that just became resident
// (activation or eager load). Called before the repository serves requests,
// so no mutation races the recount.
func (g *TenantGovernor) addRepo(r *Repository) {
	g.applyRepo(r, 1)
}

// removeRepo credits every object of a repository leaving memory (eviction
// or drop).
func (g *TenantGovernor) removeRepo(r *Repository) {
	g.applyRepo(r, -1)
}

func (g *TenantGovernor) applyRepo(r *Repository, sign int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	r.objects.Range(func(_ string, obj *storedObject) bool {
		u := g.usage[obj.owner]
		u.Objects += sign
		u.Bytes += sign * approxObjectBytes(obj)
		g.set(obj.owner, u)
		return true
	})
}
