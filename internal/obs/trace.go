package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	mrand "math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the distributed-tracing half of obs: one Search/Update/Train
// produces a single span tree spanning the client operation, the wire
// transport, the server dispatch, the engine phases and the WAL append —
// across processes. A trace is identified by a random 64-bit TraceID carried
// in the wire envelope; spans attach to context.Context and parent
// themselves automatically, so instrumented layers never thread span handles
// by hand.
//
// Sampling is two-stage. Head-based: at trace start a probabilistic decision
// (Tracer sample rate) or an explicit force (mie-client -trace) marks the
// trace kept-no-matter-what; the decision propagates on the wire so client
// and server keep the same traces. Tail-based: when a slow-request threshold
// is configured, every request collects spans and the keep decision is made
// at the end — slow or errored requests are captured even when the head
// sampler passed on them. Completed traces land in a bounded lock-free ring
// (see ring.go) served by /debug/traces.

// maxSpansPerTrace bounds one trace's span list so a pathological request
// (or an instrumentation bug in a loop) cannot grow without bound.
const maxSpansPerTrace = 512

// idRand is the process-local generator for trace and span ids, seeded from
// crypto/rand so two processes (client and server) never collide.
var idRand = func() *mrand.Rand {
	var seed [16]byte
	if _, err := crand.Read(seed[:]); err != nil {
		binary.LittleEndian.PutUint64(seed[:8], uint64(time.Now().UnixNano()))
	}
	var s mrand.PCG
	s.Seed(binary.LittleEndian.Uint64(seed[:8]), binary.LittleEndian.Uint64(seed[8:]))
	return mrand.New(&s)
}()

var idMu sync.Mutex

// newID draws a nonzero trace or span id.
func newID() uint64 {
	idMu.Lock()
	defer idMu.Unlock()
	for {
		if id := idRand.Uint64(); id != 0 {
			return id
		}
	}
}

// FormatTraceID renders a trace id the way logs and endpoints print it.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID is the inverse of FormatTraceID.
func ParseTraceID(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSpace(s), 16, 64)
}

// SpanRecord is one finished span inside a trace: its identity, its parent,
// the metrics path it recorded under, and its wall-clock interval. Err is
// set when the instrumented operation failed.
type SpanRecord struct {
	SpanID        uint64 `json:"span_id"`
	ParentID      uint64 `json:"parent_id,omitempty"`
	Name          string `json:"name"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	Err           string `json:"err,omitempty"`
}

// Trace is one completed, kept request trace.
type Trace struct {
	TraceID uint64 `json:"trace_id"`
	// Root is the name of the trace's root span (e.g. "rpc/search").
	Root          string `json:"root"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	// Reason records why the trace was kept: "sampled" (head sampling or an
	// explicit force), "slow" or "error" (tail capture).
	Reason string       `json:"reason"`
	Spans  []SpanRecord `json:"spans"`
}

// SpanContext is the wire-propagated identity of the calling span: the
// trace it belongs to, the span the remote side should parent under, and
// whether the head sampler already decided to keep the trace.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// context keys for the active trace and the current span.
type (
	traceCtxKey struct{}
	spanCtxKey  struct{}
)

// traceFrom returns the collecting trace attached to ctx, if any.
func traceFrom(ctx context.Context) *ActiveTrace {
	if ctx == nil {
		return nil
	}
	at, _ := ctx.Value(traceCtxKey{}).(*ActiveTrace)
	return at
}

// TraceFromContext returns the in-flight trace attached to ctx, if any.
// Callers that conditionally start their own trace (the client transport)
// use it to tell a caller-owned trace from none.
func TraceFromContext(ctx context.Context) *ActiveTrace { return traceFrom(ctx) }

// SpanFromContext returns the span attached to ctx, if any.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SpanContextFrom extracts the wire-propagatable identity of the current
// span in ctx. The zero SpanContext means "not traced" — including after the
// trace has been finished, so a stale derived context (e.g. a follow-up call
// reusing a request context) does not smear new spans into an old trace id.
func SpanContextFrom(ctx context.Context) SpanContext {
	s := SpanFromContext(ctx)
	if s == nil || s.tr == nil || s.tr.done.Load() {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tr.traceID, SpanID: s.id, Sampled: s.tr.sampled}
}

// ActiveTrace is one in-flight request trace collecting its spans. It is
// created by a Tracer at the request boundary and finished there too; spans
// in between attach through the context.
type ActiveTrace struct {
	tracer  *Tracer
	traceID uint64
	// remoteParent is the caller's span id on the other side of the wire;
	// the first local span parents under it so merged trees nest.
	remoteParent uint64
	// sampled records the head-sampling (or forced) keep decision.
	sampled bool
	start   time.Time
	rootID  atomic.Uint64
	// done mirrors finished for lock-free reads (SpanContextFrom).
	done atomic.Bool

	mu       sync.Mutex
	finished bool
	spans    []SpanRecord
}

// record appends one finished span. Safe for concurrent use (parallel
// modality lookups finish on their own goroutines).
func (at *ActiveTrace) record(rec SpanRecord) {
	at.mu.Lock()
	if !at.finished && len(at.spans) < maxSpansPerTrace {
		at.spans = append(at.spans, rec)
	}
	at.mu.Unlock()
}

// Finish completes the trace: the keep decision is made (head sample, slow
// threshold, error capture), a kept trace is published to the tracer's ring
// and returned, a dropped one returns nil. Finish is idempotent; only the
// first call publishes.
func (at *ActiveTrace) Finish() *Trace {
	if at == nil {
		return nil
	}
	at.mu.Lock()
	if at.finished {
		at.mu.Unlock()
		return nil
	}
	at.finished = true
	at.done.Store(true)
	spans := at.spans
	at.spans = nil
	at.mu.Unlock()

	t := at.tracer
	root := SpanRecord{Name: "?", StartUnixNano: at.start.UnixNano()}
	var errored bool
	rootID := at.rootID.Load()
	for _, rec := range spans {
		if rec.SpanID == rootID {
			root = rec
		}
		if rec.Err != "" {
			errored = true
		}
	}
	dur := time.Duration(root.DurationNanos)
	slow := t.SlowThreshold()
	reason := ""
	switch {
	case at.sampled:
		reason = "sampled"
	case errored:
		reason = "error"
	case slow > 0 && dur >= slow:
		reason = "slow"
	}
	if reason == "" {
		t.dropped.Inc()
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUnixNano < spans[j].StartUnixNano })
	tr := &Trace{
		TraceID:       at.traceID,
		Root:          root.Name,
		StartUnixNano: root.StartUnixNano,
		DurationNanos: root.DurationNanos,
		Reason:        reason,
		Spans:         spans,
	}
	t.ring.push(tr)
	t.reg.Counter(L("traces_kept_total", "reason", reason)).Inc()
	if slow > 0 && dur >= slow {
		t.logger().Warn("slow request",
			"trace", FormatTraceID(at.traceID),
			"root", root.Name,
			"duration_ms", float64(dur)/float64(time.Millisecond),
			"spans", len(spans),
			"err", root.Err)
	}
	return tr
}

// Tracer makes the sampling decisions and owns the completed-trace ring.
// One Tracer per process side (the Default suffices for almost everything);
// rate and threshold are adjustable at runtime.
type Tracer struct {
	reg  *Registry
	ring *traceRing
	log  atomic.Pointer[slog.Logger]
	// rate is the head-sampling probability (float64 bits).
	rate atomic.Uint64
	// slowNanos > 0 enables tail capture of slow requests.
	slowNanos atomic.Int64

	started *Counter
	dropped *Counter
}

// DefaultTraceCapacity is the ring size of tracers that do not choose one.
const DefaultTraceCapacity = 256

// NewTracer creates a tracer recording its own counters into reg (nil means
// the default registry) with a ring of the given capacity (<=0 means
// DefaultTraceCapacity). The zero-configured tracer samples nothing and
// captures nothing; it only collects traces forced by a peer or caller.
func NewTracer(reg *Registry, capacity int) *Tracer {
	if reg == nil {
		reg = Default()
	}
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{
		reg:     reg,
		ring:    newTraceRing(capacity),
		started: reg.Counter("traces_started_total"),
		dropped: reg.Counter("traces_dropped_total"),
	}
	return t
}

var defaultTracer = NewTracer(Default(), DefaultTraceCapacity)

// DefaultTracer returns the process-wide tracer. Server, client and CLI
// instrumentation share it unless explicitly configured otherwise, so one
// /debug/traces endpoint shows every request of the process.
func DefaultTracer() *Tracer { return defaultTracer }

// SetSampleRate sets the head-sampling probability in [0,1].
func (t *Tracer) SetSampleRate(r float64) {
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	t.rate.Store(math.Float64bits(r))
}

// SampleRate returns the head-sampling probability.
func (t *Tracer) SampleRate() float64 { return math.Float64frombits(t.rate.Load()) }

// SetSlowThreshold enables (d > 0) or disables (d <= 0) tail-based capture
// of requests slower than d, and of errored requests.
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNanos.Store(int64(d)) }

// SlowThreshold returns the tail-capture threshold (0 = disabled).
func (t *Tracer) SlowThreshold() time.Duration { return time.Duration(t.slowNanos.Load()) }

// SetLogger routes the slow-request log line (nil disables it).
func (t *Tracer) SetLogger(l *slog.Logger) { t.log.Store(l) }

func (t *Tracer) logger() *slog.Logger { return OrDiscard(t.log.Load()) }

// headSample rolls the head-sampling dice.
func (t *Tracer) headSample() bool {
	r := t.SampleRate()
	if r <= 0 {
		return false
	}
	if r >= 1 {
		return true
	}
	idMu.Lock()
	v := idRand.Float64()
	idMu.Unlock()
	return v < r
}

// begin makes the collect/keep decisions and, when collecting, attaches a
// fresh ActiveTrace to ctx. A nil ActiveTrace return means the request is
// not being traced and ctx is unchanged — the zero-overhead path.
func (t *Tracer) begin(ctx context.Context, traceID, remoteParent uint64, sampled bool) (context.Context, *ActiveTrace) {
	if t == nil {
		return ctx, nil
	}
	t.started.Inc()
	if !sampled {
		sampled = t.headSample()
	}
	// Collect when the trace is kept for sure (sampled/forced) or when tail
	// capture may keep it at the end (slow threshold configured).
	if !sampled && t.SlowThreshold() <= 0 {
		return ctx, nil
	}
	if traceID == 0 {
		traceID = newID()
	}
	at := &ActiveTrace{
		tracer:       t,
		traceID:      traceID,
		remoteParent: remoteParent,
		sampled:      sampled,
		start:        timeNow(),
	}
	return context.WithValue(ctx, traceCtxKey{}, at), at
}

// StartTrace begins a locally-originated trace under head sampling; use
// ForceTrace to bypass the dice (mie-client -trace). If ctx already carries
// a trace it is returned unchanged.
func (t *Tracer) StartTrace(ctx context.Context) (context.Context, *ActiveTrace) {
	if at := traceFrom(ctx); at != nil {
		return ctx, at
	}
	return t.begin(ctx, 0, 0, false)
}

// ForceTrace begins a locally-originated trace that is always kept.
func (t *Tracer) ForceTrace(ctx context.Context) (context.Context, *ActiveTrace) {
	if at := traceFrom(ctx); at != nil {
		return ctx, at
	}
	return t.begin(ctx, 0, 0, true)
}

// Join continues a trace arriving over the wire: the peer's TraceID and
// parent span id (both 0 for an untraced request) and its sampling
// decision. An untraced request still rolls this side's head sampler, so a
// server traces its share of untraced traffic too.
func (t *Tracer) Join(ctx context.Context, traceID, parentSpan uint64, sampled bool) (context.Context, *ActiveTrace) {
	return t.begin(ctx, traceID, parentSpan, sampled)
}

// Get returns a completed trace by id, if the ring still holds it.
func (t *Tracer) Get(traceID uint64) (*Trace, bool) {
	tr := t.ring.get(traceID)
	return tr, tr != nil
}

// Traces returns the completed traces in the ring, most recent first.
func (t *Tracer) Traces() []*Trace { return t.ring.snapshot() }

// RenderTraceTree renders a trace (or several merged trace fragments that
// share a TraceID — the client-side and server-side halves of one request)
// as an indented tree with per-span durations, for terminals and the
// /debug/traces?format=tree view.
func RenderTraceTree(traces ...*Trace) string {
	var all []SpanRecord
	var traceID uint64
	var reason string
	seen := make(map[uint64]bool)
	for _, t := range traces {
		if t == nil {
			continue
		}
		if traceID == 0 {
			traceID = t.TraceID
			reason = t.Reason
		}
		for _, s := range t.Spans {
			if s.SpanID != 0 && seen[s.SpanID] {
				continue
			}
			seen[s.SpanID] = true
			all = append(all, s)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%s)\n", FormatTraceID(traceID), reason)
	if len(all) == 0 {
		b.WriteString("  (no spans)\n")
		return b.String()
	}
	children := make(map[uint64][]SpanRecord)
	ids := make(map[uint64]bool, len(all))
	for _, s := range all {
		ids[s.SpanID] = true
	}
	var roots []SpanRecord
	for _, s := range all {
		if s.ParentID != 0 && ids[s.ParentID] {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}
	order := func(list []SpanRecord) {
		sort.Slice(list, func(i, j int) bool { return list[i].StartUnixNano < list[j].StartUnixNano })
	}
	order(roots)
	var walk func(s SpanRecord, prefix string, last bool)
	walk = func(s SpanRecord, prefix string, last bool) {
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		fmt.Fprintf(&b, "%s%s%s %.3fms", prefix, branch, s.Name, float64(s.DurationNanos)/1e6)
		if s.Err != "" {
			fmt.Fprintf(&b, " err=%q", s.Err)
		}
		b.WriteByte('\n')
		kids := children[s.SpanID]
		order(kids)
		for i, k := range kids {
			walk(k, prefix+cont, i == len(kids)-1)
		}
	}
	for i, r := range roots {
		walk(r, "", i == len(roots)-1)
	}
	return b.String()
}
