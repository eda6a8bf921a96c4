// Command mie-server runs the untrusted MIE cloud component: it hosts
// repositories, stores ciphertexts and DPE encodings, trains codebooks and
// answers encrypted multimodal queries over the wire protocol.
//
// Usage:
//
//	mie-server [-addr :7709] [-data-dir /var/lib/mie] [-snapshot-every 5m]
//	           [-wal-sync always] [-memory-budget 4GiB]
//	           [-quota-objects N] [-quota-bytes N] [-quota-inflight N]
//	           [-debug-addr 127.0.0.1:7710] [-log-level info]
//	           [-trace-sample 0.01] [-slow-ms 250]
//	           [-role leader|follower] [-peers leader:7709]
//	           [-router node-0=host0:7709,node-1=host1:7709]
//
// Replication (requires -data-dir): -role leader streams every acknowledged
// WAL record to subscribing followers; -role follower replicates from the
// leader named by -peers, serves Search/Get from its local replica and
// forwards mutations and training to the leader. -router turns the process
// into the stateless routing tier instead of a node: it serves the wire
// protocol on -addr, places repositories on the listed nodes by consistent
// hashing (the first entry is the leader), health-checks each node and
// fails reads over to caught-up replicas.
//
// With -data-dir the server is crash-safe: every acknowledged Update/Remove
// is appended to a per-repository write-ahead log before the client sees
// success, snapshots are written on shutdown and every -snapshot-every
// interval (folding the log back in and rotating it empty), and startup
// restores each repository from its snapshot plus a replay of its log.
// -wal-sync picks the log's fsync policy: "always" (default — acknowledged
// writes survive power loss), "interval" (fsync on a timer; a crash may
// lose the last interval's writes) or "never" (fastest; the OS decides).
//
// Multi-tenancy (requires -data-dir): -memory-budget (bytes; k/M/G/Ki/Mi/Gi
// suffixes accepted) caps the approximate resident footprint of active
// repositories; least-recently-used idle repositories are evicted back to
// disk when the budget is exceeded. With a budget every recovered
// repository starts cold — its snapshot and WAL stay on disk until the
// first request activates it — so a server can catalog far more
// repositories than fit in memory; without one, startup loads them all. -quota-objects/-quota-bytes bound any
// single owner's resident footprint and -quota-inflight the concurrent
// requests (0 = unlimited); over-quota requests are rejected with a typed
// wire error carrying a retry-after hint. The server installs no
// authorizer, so every request shares one in-flight pool: no name a token
// merely carries keys a quota.
// With -debug-addr it additionally serves the observability endpoint:
// /metrics (Prometheus text exposition), /metrics.json, /debug/traces
// (recently kept request traces), /debug/leakage (per-repository leakage
// profiles), /debug/vars (expvar) and /debug/pprof — bind it to a trusted
// interface only. -trace-sample sets the head-sampling probability for
// request traces; -slow-ms additionally keeps a trace for any request slower
// than the threshold regardless of sampling (0 disables tail capture). The server holds no
// key material: everything it stores and computes on is encrypted or encoded
// client-side. Point mie-client (or any program built on the public mie
// package) at its address.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/replica"
	"mie/internal/router"
	"mie/internal/server"
	"mie/internal/wal"
)

// tenancyFlags carries the multi-tenant lifecycle knobs from flag parsing
// to run.
type tenancyFlags struct {
	memoryBudget string
	quotas       core.Quotas
}

func main() {
	addr := flag.String("addr", ":7709", "listen address")
	dataDir := flag.String("data-dir", "", "data directory for durable repositories: snapshots + write-ahead logs (empty = in-memory only)")
	snapEvery := flag.Duration("snapshot-every", 5*time.Minute, "periodic snapshot interval; each snapshot rotates the WAL (with -data-dir)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always, interval or never")
	debugAddr := flag.String("debug-addr", "", "observability HTTP address for /metrics, /debug/vars and /debug/pprof (empty = disabled)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	traceSample := flag.Float64("trace-sample", 0.01, "head-sampling probability for request traces in [0,1]")
	slowMS := flag.Int("slow-ms", 250, "keep a trace and log a warning for requests slower than this many milliseconds (0 = disabled)")
	role := flag.String("role", "", `replication role: "" (standalone), "leader" (stream acknowledged WAL records to followers) or "follower" (replicate from -peers, forward mutations to it; requires -data-dir)`)
	peers := flag.String("peers", "", "leader address a follower replicates from and forwards mutations to (with -role follower)")
	routerSpec := flag.String("router", "", "run as the routing tier instead of a node: comma-separated name=addr members, first entry is the leader; serves on -addr")
	var ten tenancyFlags
	flag.StringVar(&ten.memoryBudget, "memory-budget", "", "approximate resident-memory budget for active repositories, e.g. 512MiB or 4GiB; idle repositories are evicted to disk above it (requires -data-dir; empty = unlimited)")
	flag.Int64Var(&ten.quotas.MaxObjects, "quota-objects", 0, "per-tenant cap on resident objects (0 = unlimited)")
	flag.Int64Var(&ten.quotas.MaxBytes, "quota-bytes", 0, "per-tenant cap on approximate resident bytes (0 = unlimited)")
	flag.IntVar(&ten.quotas.MaxInflight, "quota-inflight", 0, "cap on concurrent in-flight requests; with no authorizer every request shares one pool (0 = unlimited)")
	flag.Parse()
	if *routerSpec != "" {
		if err := runRouter(*addr, *routerSpec, *logLevel); err != nil {
			fmt.Fprintln(os.Stderr, "mie-server:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*addr, *dataDir, *snapEvery, *walSync, *debugAddr, *logLevel, *traceSample, *slowMS, *role, *peers, ten); err != nil {
		fmt.Fprintln(os.Stderr, "mie-server:", err)
		os.Exit(1)
	}
}

// runRouter serves the routing tier until interrupted.
func runRouter(addr, spec, logLevel string) error {
	logger, err := newLogger(logLevel)
	if err != nil {
		return err
	}
	cfg := router.Config{Addr: addr, Logger: logger}
	for _, part := range strings.Split(spec, ",") {
		name, nodeAddr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("-router: member %q is not name=addr", part)
		}
		cfg.Nodes = append(cfg.Nodes, router.Node{Name: name, Addr: nodeAddr})
	}
	rt, err := router.Start(cfg)
	if err != nil {
		return err
	}
	logger.Info("routing", "addr", rt.Addr(), "nodes", len(cfg.Nodes), "leader", cfg.Nodes[0].Name)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
	return rt.Close()
}

// newLogger returns the process logger: key=value text lines on stderr at or
// above the -log-level value (debug, info, warn or error, any case).
func newLogger(logLevel string) (*slog.Logger, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(logLevel)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})), nil
}

// parseBytes parses a human byte size: a plain integer, or one with a
// k/M/G/T (decimal) or Ki/Mi/Gi/Ti (binary) suffix, optionally ending in B.
func parseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimSuffix(t, "B")
	t = strings.TrimSuffix(t, "b")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "Ki"), strings.HasSuffix(t, "ki"):
		mult, t = 1<<10, t[:len(t)-2]
	case strings.HasSuffix(t, "Mi"), strings.HasSuffix(t, "mi"):
		mult, t = 1<<20, t[:len(t)-2]
	case strings.HasSuffix(t, "Gi"), strings.HasSuffix(t, "gi"):
		mult, t = 1<<30, t[:len(t)-2]
	case strings.HasSuffix(t, "Ti"), strings.HasSuffix(t, "ti"):
		mult, t = 1<<40, t[:len(t)-2]
	case strings.HasSuffix(t, "k"), strings.HasSuffix(t, "K"):
		mult, t = 1e3, t[:len(t)-1]
	case strings.HasSuffix(t, "M"), strings.HasSuffix(t, "m"):
		mult, t = 1e6, t[:len(t)-1]
	case strings.HasSuffix(t, "G"), strings.HasSuffix(t, "g"):
		mult, t = 1e9, t[:len(t)-1]
	case strings.HasSuffix(t, "T"):
		mult, t = 1e12, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	return n * mult, nil
}

func run(addr, dataDir string, snapEvery time.Duration, walSync, debugAddr, logLevel string, traceSample float64, slowMS int, role, peers string, ten tenancyFlags) error {
	logger, err := newLogger(logLevel)
	if err != nil {
		return err
	}

	tracer := obs.DefaultTracer()
	tracer.SetSampleRate(traceSample)
	tracer.SetSlowThreshold(time.Duration(slowMS) * time.Millisecond)
	tracer.SetLogger(logger)

	sopts := core.ServiceOptions{Dir: dataDir, Quotas: ten.quotas}
	if ten.memoryBudget != "" {
		if sopts.MemoryBudget, err = parseBytes(ten.memoryBudget); err != nil {
			return fmt.Errorf("-memory-budget: %w", err)
		}
	}
	var policy wal.SyncPolicy
	if dataDir != "" {
		if policy, err = wal.ParseSyncPolicy(walSync); err != nil {
			return err
		}
		sopts.Sync = policy
	}
	svc, report, err := core.OpenService(sopts)
	if svc == nil {
		return err // the data directory (or option set) itself is unusable
	}
	if err != nil {
		// Partial loads keep the healthy repositories; log and serve.
		logger.Warn("restore incomplete", "err", err)
	}
	if dataDir != "" {
		logger.Info("recovered repositories",
			"count", report.Repositories,
			"cold", report.ColdRepositories,
			"wal_records_replayed", report.ReplayedRecords,
			"wal_bytes_replayed", report.ReplayedBytes,
			"torn_bytes_discarded", report.TornBytes,
			"orphans_removed", report.OrphansRemoved,
			"wal_sync", policy.String(),
			"memory_budget", sopts.MemoryBudget,
			"dir", dataDir)
	}

	if debugAddr != "" {
		dbg, err := obs.ServeDebug(debugAddr, obs.Default(), logger,
			obs.WithHandler("/debug/leakage", leakageHandler(svc)))
		if err != nil {
			return err
		}
		defer func() { _ = dbg.Close() }()
	}

	var sopts2 []server.Option
	switch role {
	case "":
	case "leader":
		if dataDir == "" {
			return fmt.Errorf("-role leader requires -data-dir (replication ships the WAL)")
		}
		hub := replica.NewHub(svc, obs.Default())
		sopts2 = append(sopts2,
			server.WithReplication(hub),
			server.WithNodeStatus(func() server.NodeStatus {
				return server.NodeStatus{Role: "leader", CaughtUp: true}
			}))
	case "follower":
		if dataDir == "" {
			return fmt.Errorf("-role follower requires -data-dir (the replica re-logs applied records)")
		}
		if peers == "" {
			return fmt.Errorf("-role follower requires -peers with the leader address")
		}
		fol, err := replica.StartFollower(svc, peers, obs.Default(), logger)
		if err != nil {
			return err
		}
		defer fol.Close()
		fwd := replica.NewForwarder(peers)
		defer func() { _ = fwd.Close() }()
		sopts2 = append(sopts2,
			server.WithForwarder(fwd),
			server.WithNodeStatus(func() server.NodeStatus {
				st := fol.Status()
				return server.NodeStatus{Role: "follower", CaughtUp: st.CaughtUp, LagNanos: st.LagNanos}
			}))
	default:
		return fmt.Errorf("-role must be empty, leader or follower (got %q)", role)
	}

	srv, err := server.New(addr, svc, logger, sopts2...)
	if err != nil {
		return err
	}
	logger.Info("serving", "addr", srv.Addr(), "role", role)

	stopSnap := make(chan struct{})
	snapDone := make(chan struct{})
	if dataDir != "" && snapEvery > 0 {
		go func() {
			defer close(snapDone)
			ticker := time.NewTicker(snapEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := core.SaveService(svc, dataDir); err != nil {
						logger.Error("periodic snapshot failed", "err", err)
					}
				case <-stopSnap:
					return
				}
			}
		}()
	} else {
		close(snapDone)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
	close(stopSnap)
	<-snapDone
	if dataDir != "" {
		if err := core.SaveService(svc, dataDir); err != nil {
			logger.Error("final snapshot failed", "err", err)
		} else {
			logger.Info("snapshots written", "dir", dataDir)
		}
	}
	return srv.Close()
}

// leakageHandler serves the per-repository leakage profiles as JSON — what
// the honest-but-curious cloud has observed so far (Table I, counted).
func leakageHandler(svc *core.Service) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(svc.LeakageSummaries())
	})
}
