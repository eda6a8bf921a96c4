package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the opt-in HTTP observability endpoint of an MIE process
// (mie-server's -debug-addr flag). It exposes:
//
//	/metrics       Prometheus text exposition of the bound registry
//	/metrics.json  the same snapshot as JSON (a Snapshot)
//	/debug/traces  the completed request traces of DefaultTracer (JSON list;
//	               ?trace=<id> for one, &format=tree for an indented tree)
//	/debug/vars    expvar: Go's runtime memstats and command line
//	/debug/pprof   the full net/http/pprof suite (CPU/heap/goroutine profiles)
//	/healthz       liveness probe
//
// It binds its own listener so it can never contend with the wire protocol
// port, and must only be exposed on trusted interfaces: profiles, metrics
// and traces leak operational patterns (not plaintexts — the server never
// has those — but access frequencies are exactly the leakage the paper's
// §IV analysis bounds, so don't hand them to untrusted observers).
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// DebugOption configures ServeDebug.
type DebugOption func(*debugConfig)

type debugConfig struct {
	handlers map[string]http.Handler
}

// WithHandler mounts an extra handler on the debug mux — how mie-server
// attaches /debug/leakage without obs importing the engine.
func WithHandler(pattern string, h http.Handler) DebugOption {
	return func(c *debugConfig) {
		if c.handlers == nil {
			c.handlers = make(map[string]http.Handler)
		}
		c.handlers[pattern] = h
	}
}

// discard drops every record before formatting it: its minimum level is
// above any level a caller can log at. (slog.DiscardHandler needs Go 1.24;
// go.mod says 1.22.)
var discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// OrDiscard returns lg, or for a nil lg a logger that discards everything —
// what "nil logger" means to every constructor in this module that takes one.
func OrDiscard(lg *slog.Logger) *slog.Logger {
	if lg == nil {
		return discard
	}
	return lg
}

// ServeDebug starts a debug server on addr (use ":0" for an ephemeral port).
func ServeDebug(addr string, reg *Registry, logger *slog.Logger, opts ...DebugOption) (*DebugServer, error) {
	if reg == nil {
		reg = Default()
	}
	logger = OrDiscard(logger)
	var cfg debugConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		UpdateRuntimeMetrics(reg)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			logger.Warn("metrics exposition failed", "err", err)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		UpdateRuntimeMetrics(reg)
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			logger.Warn("metrics json failed", "err", err)
		}
	})
	mux.Handle("/debug/traces", TraceHandler(DefaultTracer()))
	for pattern, h := range cfg.handlers {
		mux.Handle(pattern, h)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	d := &DebugServer{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() {
		if err := d.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("debug server exited", "err", err)
		}
	}()
	logger.Info("debug server listening", "addr", d.Addr())
	return d, nil
}

// Addr returns the bound address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the debug server down.
func (d *DebugServer) Close() error { return d.srv.Close() }

// traceSummary is one row of the /debug/traces listing.
type traceSummary struct {
	TraceID    string  `json:"trace_id"`
	Root       string  `json:"root"`
	StartUnix  int64   `json:"start_unix_nano"`
	DurationMs float64 `json:"duration_ms"`
	Reason     string  `json:"reason"`
	Spans      int     `json:"spans"`
}

// TraceHandler serves a tracer's completed-trace ring: a JSON summary list
// by default, one full trace with ?trace=<hex id> (its indented tree with
// &format=tree).
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if idStr := r.URL.Query().Get("trace"); idStr != "" {
			id, err := ParseTraceID(idStr)
			if err != nil {
				http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
				return
			}
			tr, ok := t.Get(id)
			if !ok {
				http.Error(w, "trace not found (evicted or never kept)", http.StatusNotFound)
				return
			}
			if r.URL.Query().Get("format") == "tree" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprint(w, RenderTraceTree(tr))
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(tr)
			return
		}
		traces := t.Traces()
		out := make([]traceSummary, 0, len(traces))
		for _, tr := range traces {
			out = append(out, traceSummary{
				TraceID:    FormatTraceID(tr.TraceID),
				Root:       tr.Root,
				StartUnix:  tr.StartUnixNano,
				DurationMs: float64(tr.DurationNanos) / 1e6,
				Reason:     tr.Reason,
				Spans:      len(tr.Spans),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}
