// Package mie is the public API of the MIE framework — Multimodal Indexable
// Encryption (Ferreira, Leitão, Domingos; DSN 2017): encrypted storage and
// ranked multimodal search of text+image data on untrusted servers, with the
// heavy training and indexing computations outsourced to the server over
// Distance Preserving Encodings.
//
// A minimal embedded (in-process) session:
//
//	ctx := context.Background()
//	key, _ := mie.NewRepositoryKey()
//	client, _ := mie.NewClient(mie.ClientConfig{Key: key})
//	repo, _ := mie.Open(ctx, mie.Options{
//		Client: client,
//		RepoID: "photos",
//		Create: true,
//	})
//	defer repo.Close()
//	dataKey, _ := mie.NewDataKey()
//	_ = repo.Add(ctx, &mie.Object{ID: "p1", Text: "beach sunset", Image: img}, dataKey)
//	_ = repo.Train(ctx)
//	hits, _ := repo.Search(ctx, &mie.Object{ID: "q", Text: "sunset"}, 10)
//
// The same Repository interface works against a remote server started with
// cmd/mie-server by setting Options.Addr; the connection then speaks the
// multiplexed wire protocol, so concurrent calls share one TCP
// connection, context deadlines ride to the server, and canceling a context
// aborts the in-flight request on both ends. Training can also run as an
// asynchronous server-side job via TrainAsync — the mobile client may
// disconnect while the cloud trains.
package mie

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"mie/internal/audio"
	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/device"
	"mie/internal/imaging"
	"mie/internal/obs"
	"mie/internal/server"
	"mie/internal/wire"
)

// Re-exported core types; see the internal packages for full documentation.
type (
	// Object is a multimodal data object (any subset of text, image, audio).
	Object = core.Object
	// Client is the trusted client-side component: feature extraction, DPE
	// encoding and object encryption.
	Client = core.Client
	// ClientConfig configures a Client.
	ClientConfig = core.ClientConfig
	// RepositoryKey is the secret shared among a repository's users.
	RepositoryKey = core.RepositoryKey
	// RepositoryOptions tunes the server-side engine.
	RepositoryOptions = core.RepositoryOptions
	// SearchHit is one ranked search result.
	SearchHit = core.SearchHit
	// Service hosts repositories in process.
	Service = core.Service
	// ServiceOptions configures OpenService: durable directory, sync
	// policy, lazy activation, memory budget and tenant quotas.
	ServiceOptions = core.ServiceOptions
	// RecoveryReport summarizes what OpenService recovered from disk.
	RecoveryReport = core.RecoveryReport
	// Quotas bounds one tenant's resident objects/bytes and in-flight
	// requests; the zero value means unlimited.
	Quotas = core.Quotas
	// QuotaError is the typed rejection carrying tenant, resource and a
	// retry-after hint; it unwraps to ErrOverQuota.
	QuotaError = core.QuotaError
	// LifecycleStats is a point-in-time view of repository activation
	// state (see Service.Lifecycle).
	LifecycleStats = core.LifecycleStats
	// DataKey encrypts a single object (fine-grained access control).
	DataKey = crypto.Key
	// Meter attributes client cost to the paper's sub-operation categories.
	Meter = device.Meter
	// Image is a grayscale image, one of the dense modalities of an Object.
	Image = imaging.Image
	// Clip is a mono audio clip, the third modality of an Object.
	Clip = audio.Clip
	// TrainState is the lifecycle state of an asynchronous training job.
	TrainState = core.TrainJobState
	// TrainStatus is a point-in-time view of one training job.
	TrainStatus = core.TrainJobStatus
	// Trace is a completed request trace: a span tree recorded on one side
	// (client or server) of an operation. See TraceFetcher.
	Trace = obs.Trace
)

// TraceFetcher is implemented by remote Repository handles. It retrieves the
// server-side half of a distributed trace by id — the span tree the server
// kept for a sampled (or slow/errored) request this handle made. Render it,
// together with any client-side fragment, via obs.RenderTraceTree.
type TraceFetcher interface {
	FetchTrace(ctx context.Context, traceID uint64) (*Trace, error)
}

// Training job states.
const (
	TrainRunning = core.TrainRunning
	TrainDone    = core.TrainDone
	TrainFailed  = core.TrainFailed
)

// ErrRepositoryExists reports that Open was asked to create a repository
// that already exists. Open still returns a valid handle to the existing
// repository alongside it, so callers for whom reuse is acceptable opt in
// explicitly:
//
//	repo, err := mie.Open(ctx, opts)
//	if err != nil && !errors.Is(err, mie.ErrRepositoryExists) {
//		return err
//	}
//
// For embedded deployments the error is returned only when the requested
// RepositoryOptions differ from the ones the repository was created with —
// re-running creation with identical parameters is harmless. A remote
// server cannot be asked for its parameters, so there any create collision
// reports the sentinel.
var ErrRepositoryExists = errors.New("mie: repository already exists")

// ErrOverQuota reports that the server rejected a request because the
// caller's tenant exceeded an admission quota (objects, bytes or in-flight
// requests). Both embedded and remote errors match it with errors.Is; use
// RetryAfter to extract the server's backoff hint.
var ErrOverQuota = core.ErrOverQuota

// RetryAfter extracts the server's backoff hint from a quota rejection.
// A zero duration with ok=true means the rejection is not transient: the
// tenant must free capacity (remove objects) rather than retry. ok=false
// means err carries no quota rejection at all.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var qe *core.QuotaError
	if errors.As(err, &qe) {
		return qe.RetryAfter, true
	}
	var re *client.RemoteError
	if errors.As(err, &re) && errors.Is(re, core.ErrOverQuota) {
		return re.RetryAfter, true
	}
	return 0, false
}

// NewImage allocates a zero grayscale image of the given dimensions.
func NewImage(w, h int) (*Image, error) { return imaging.NewImage(w, h) }

// NewClip wraps mono PCM samples (nominally 16 kHz, [-1,1]) as an audio clip.
func NewClip(samples []float64) *Clip { return audio.NewClip(samples) }

// NewRepositoryKey draws a fresh repository key rk_R to be shared with
// authorized users out of band.
func NewRepositoryKey() (RepositoryKey, error) { return core.NewRepositoryKey() }

// NewDataKey draws a fresh per-object data key dk_p.
func NewDataKey() (DataKey, error) { return crypto.NewRandomKey() }

// NewClient builds the client-side component for one repository.
func NewClient(cfg ClientConfig) (*Client, error) { return core.NewClient(cfg) }

// OpenService opens an in-process MIE server component. The zero
// ServiceOptions value yields a purely in-memory service (the old
// NewService behavior); setting Dir makes it durable (snapshot + WAL per
// repository, the old LoadService behavior), and on a durable service
// LazyActivation, MemoryBudget and Quotas unlock the multi-tenant
// lifecycle: repositories start cold, activate on first use, and are
// evicted back to disk under memory pressure. The report describes what
// was recovered from Dir (nil for in-memory services).
func OpenService(opts ServiceOptions) (*Service, *RecoveryReport, error) {
	return core.OpenService(opts)
}

// DecryptObject recovers a plaintext object from a hit's ciphertext using
// its data key.
func DecryptObject(ciphertext []byte, dataKey DataKey) (*Object, error) {
	return core.DecryptObject(ciphertext, dataKey)
}

// Repository is the user-facing handle for one shared repository: Add,
// Remove, Train, Search, Get — the five operations of the scheme plus reads
// — independent of whether the server runs in process or across the
// network. Every call takes a context; deadlines and cancellation propagate
// to the server over the wire protocol's deadline and Cancel frames.
type Repository interface {
	// Add uploads (or replaces) an object encrypted under dataKey.
	Add(ctx context.Context, obj *Object, dataKey DataKey) error
	// Remove deletes an object by id.
	Remove(ctx context.Context, objectID string) error
	// Train asks the server to run training and build the indexes, and
	// waits for completion. Concurrent Train calls join the same run.
	Train(ctx context.Context) error
	// TrainAsync launches training as a server-side background job and
	// returns its handle immediately. The job belongs to the repository,
	// not the caller: it keeps running if the caller disconnects.
	TrainAsync(ctx context.Context) (*TrainJob, error)
	// Search returns the top-k objects most similar to the query object.
	Search(ctx context.Context, query *Object, k int) ([]SearchHit, error)
	// Get fetches one stored ciphertext and its owner id.
	Get(ctx context.Context, objectID string) (ciphertext []byte, owner string, err error)
	// Close releases the handle's resources (the connection, for remote
	// repositories). The repository itself lives on.
	Close() error
}

// TrainJob is a handle to an asynchronous training job.
type TrainJob struct {
	id     uint64
	status func(ctx context.Context, wait bool) (TrainStatus, error)
}

// ID returns the server-assigned job identifier.
func (j *TrainJob) ID() uint64 { return j.id }

// Status polls the job without blocking.
func (j *TrainJob) Status(ctx context.Context) (TrainStatus, error) {
	return j.status(ctx, false)
}

// Wait blocks until the job finishes or ctx expires; on expiry it returns
// the job's latest status alongside ctx's error.
func (j *TrainJob) Wait(ctx context.Context) (TrainStatus, error) {
	return j.status(ctx, true)
}

// Options selects and configures the deployment a Repository handle talks
// to. Client and RepoID are always required; Addr switches between the
// embedded engine (empty) and a remote mie-server (host:port).
type Options struct {
	// Addr is the address of a remote mie-server. Empty means embedded:
	// the repository lives in this process, hosted on Service.
	Addr string
	// Service hosts embedded repositories. Nil creates a private Service,
	// which is convenient for one-repository programs; share one Service
	// across Opens to host several repositories together. Ignored when
	// Addr is set.
	Service *Service
	// Client prepares encodings and encryption on the trusted side.
	Client *Client
	// RepoID names the repository.
	RepoID string
	// Create asks for the repository to be created. If it already exists,
	// Open returns a handle to the existing repository together with
	// ErrRepositoryExists (see the sentinel's documentation).
	Create bool
	// Repo holds the engine parameters used when Create is set.
	Repo RepositoryOptions
	// Meter, when non-nil, accounts network transfer costs (remote only).
	Meter *Meter
	// Token is a bearer authorization token minted by the repository
	// owner's authority (remote only).
	Token string
}

// Open returns a Repository handle for the deployment described by opts:
// the embedded/remote split is an Options field, not an API fork.
func Open(ctx context.Context, opts Options) (Repository, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Client == nil {
		return nil, errors.New("mie: Open needs a Client")
	}
	if opts.RepoID == "" {
		return nil, errors.New("mie: Open needs a RepoID")
	}
	if opts.Addr == "" {
		return openLocal(opts)
	}
	return openRemote(ctx, opts)
}

func openLocal(opts Options) (Repository, error) {
	svc := opts.Service
	if svc == nil {
		var err error
		if svc, _, err = core.OpenService(core.ServiceOptions{}); err != nil {
			return nil, err
		}
	}
	existed := false
	if opts.Create {
		if _, err := svc.CreateRepository(opts.RepoID, opts.Repo); err != nil {
			if !errors.Is(err, core.ErrRepoExists) {
				return nil, err
			}
			existed = true
		}
	}
	// The handle holds an activation pin for its lifetime: on a lazy
	// service the repository cannot be evicted out from under an open
	// embedded handle. Close releases the pin.
	repo, release, err := svc.Acquire(opts.RepoID)
	if err != nil {
		return nil, err
	}
	h := &localRepo{client: opts.Client, repo: repo, release: release}
	if existed && !reflect.DeepEqual(repo.Options(), opts.Repo.WithDefaults()) {
		return h, fmt.Errorf("mie: repository %q exists with different options: %w",
			opts.RepoID, ErrRepositoryExists)
	}
	return h, nil
}

func openRemote(ctx context.Context, opts Options) (Repository, error) {
	conn, err := client.Dial(opts.Addr, opts.Meter)
	if err != nil {
		return nil, err
	}
	if opts.Token != "" {
		conn.SetToken(opts.Token)
	}
	r := &remoteRepo{client: opts.Client, conn: conn, repoID: opts.RepoID}
	if opts.Create {
		if err := conn.CreateRepository(ctx, opts.RepoID, wire.FromCore(opts.Repo)); err != nil {
			// The server classifies the collision with a typed wire code
			// (client.RemoteError unwraps to core.ErrRepoExists), so the
			// match is on the code, never on message text. On this path the
			// returned handle owns the live connection: callers that accept
			// the sentinel must Close the handle exactly as on success
			// (Close is idempotent).
			if errors.Is(err, core.ErrRepoExists) {
				return r, fmt.Errorf("mie: repository %q exists on %s: %w",
					opts.RepoID, opts.Addr, ErrRepositoryExists)
			}
			if cerr := conn.Close(); cerr != nil {
				return nil, fmt.Errorf("%v (close: %w)", err, cerr)
			}
			return nil, err
		}
	}
	return r, nil
}

// localRepo binds a Client to an in-process core.Repository. It holds an
// activation pin (see core.Service.Acquire) released by Close.
type localRepo struct {
	client  *Client
	repo    *core.Repository
	release func()
}

var _ Repository = (*localRepo)(nil)

func (l *localRepo) Add(ctx context.Context, obj *Object, dataKey DataKey) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	up, err := l.client.PrepareUpdateContext(ctx, obj, dataKey)
	if err != nil {
		return err
	}
	return l.repo.UpdateContext(ctx, up)
}

func (l *localRepo) Remove(ctx context.Context, objectID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.repo.RemoveContext(ctx, objectID)
}

func (l *localRepo) Train(ctx context.Context) error { return train(ctx, l) }

func (l *localRepo) TrainAsync(ctx context.Context) (*TrainJob, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id := l.repo.TrainStart()
	return &TrainJob{id: id, status: func(ctx context.Context, wait bool) (TrainStatus, error) {
		if wait {
			return l.repo.TrainWait(ctx, id)
		}
		return l.repo.TrainJob(id)
	}}, nil
}

func (l *localRepo) Search(ctx context.Context, query *Object, k int) ([]SearchHit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := l.client.PrepareQueryContext(ctx, query, k)
	if err != nil {
		return nil, err
	}
	return l.repo.SearchContext(ctx, q)
}

func (l *localRepo) Get(ctx context.Context, objectID string) ([]byte, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	return l.repo.GetContext(ctx, objectID)
}

// Close releases the handle's activation pin so a lazy service may evict
// the repository again. Idempotent (the pin release is once-only).
func (l *localRepo) Close() error {
	if l.release != nil {
		l.release()
	}
	return nil
}

// remoteRepo binds a Client to a network connection.
type remoteRepo struct {
	client *Client
	conn   *client.Conn
	repoID string
}

var _ Repository = (*remoteRepo)(nil)

func (r *remoteRepo) Add(ctx context.Context, obj *Object, dataKey DataKey) error {
	up, err := r.client.PrepareUpdateContext(ctx, obj, dataKey)
	if err != nil {
		return err
	}
	return r.conn.Update(ctx, r.repoID, up)
}

func (r *remoteRepo) Remove(ctx context.Context, objectID string) error {
	return r.conn.Remove(ctx, r.repoID, objectID)
}

func (r *remoteRepo) Train(ctx context.Context) error { return train(ctx, r) }

func (r *remoteRepo) TrainAsync(ctx context.Context) (*TrainJob, error) {
	st, err := r.conn.TrainStart(ctx, r.repoID)
	if err != nil {
		return nil, err
	}
	return &TrainJob{id: st.JobID, status: func(ctx context.Context, wait bool) (TrainStatus, error) {
		poll := r.conn.TrainStatus
		if wait {
			poll = r.conn.TrainWait
		}
		for {
			got, err := poll(ctx, r.repoID, st.JobID)
			if err != nil {
				return TrainStatus{}, err
			}
			if !wait || got.State != TrainRunning {
				return got, nil
			}
			// The server answered "still running" because the request
			// deadline lapsed server-side; keep waiting until our context
			// gives up.
			if err := ctx.Err(); err != nil {
				return got, err
			}
		}
	}}, nil
}

func (r *remoteRepo) Search(ctx context.Context, query *Object, k int) ([]SearchHit, error) {
	q, err := r.client.PrepareQueryContext(ctx, query, k)
	if err != nil {
		return nil, err
	}
	return r.conn.Search(ctx, r.repoID, q)
}

func (r *remoteRepo) Get(ctx context.Context, objectID string) ([]byte, string, error) {
	return r.conn.Get(ctx, r.repoID, objectID)
}

func (r *remoteRepo) Close() error { return r.conn.Close() }

// FetchTrace implements TraceFetcher: it asks the server for the span tree it
// kept under traceID. Use a fresh context so the fetch does not extend the
// trace being fetched.
func (r *remoteRepo) FetchTrace(ctx context.Context, traceID uint64) (*Trace, error) {
	return r.conn.FetchTrace(ctx, traceID)
}

var _ TraceFetcher = (*remoteRepo)(nil)

// train is Train on either kind of handle: it starts (or joins) a train job,
// blocks on it and folds its outcome into an error.
func train(ctx context.Context, r Repository) error {
	job, err := r.TrainAsync(ctx)
	if err != nil {
		return err
	}
	st, err := job.Wait(ctx)
	if err != nil {
		return err
	}
	if st.State == TrainFailed {
		return errors.New(st.Err)
	}
	return nil
}

// Serve starts an MIE server on addr backed by svc and returns it; callers
// own its lifecycle. The returned server's Addr reports the bound address
// (useful with ":0").
func Serve(addr string, svc *Service) (*server.Server, error) {
	return server.New(addr, svc, nil)
}

// SaveService snapshots every hosted repository into dir (one file each,
// written via fsync+rename and pruned of dropped repositories) and rotates
// each repository's write-ahead log; OpenService(ServiceOptions{Dir: dir})
// restores them. Together they give an embedded deployment the same crash
// safety cmd/mie-server's -data-dir flag provides.
func SaveService(svc *Service, dir string) error { return core.SaveService(svc, dir) }
