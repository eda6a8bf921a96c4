package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// timeNow is swappable for deterministic span tests.
var timeNow = time.Now

// Span measures the wall time of one named phase and records it into a
// registry histogram `phase_seconds{phase=<path>}` when ended. Spans nest:
// a child's path is `parent/child`, so one Search RPC decomposes into
// `rpc/search` -> `rpc/search/decode` -> ... and the registry accumulates a
// latency distribution per phase path. This is how the repo reproduces the
// paper's phase-level breakdowns (client encode vs. cloud train/index/search)
// on live traffic instead of in one-off experiments.
//
// When the surrounding context carries an ActiveTrace (see trace.go), a span
// additionally records itself into the trace with a process-unique span id
// and its parent's id — the cross-process span tree. The metrics path and
// the trace tree are deliberately decoupled: StartSpan always begins a fresh
// metrics path (so `repo/search` stays `repo/search` whether or not an RPC
// span encloses it), while trace parentage flows through the context.
//
// Spans are cheap (two time.Now calls and one histogram observation, plus
// one id and one record when traced) and intentionally not goroutine-safe: a
// span belongs to the goroutine that started it. A nil *Span is a valid
// no-op, so instrumented code does not need nil registry checks. A span's
// path and histogram are resolved once per (parent phase, name) and kept in
// the registry's phase tree, so starting and ending one builds no string.
type Span struct {
	reg   *Registry
	ph    *phase
	start time.Time
	ended bool

	// trace linkage; nil/zero when the request is untraced.
	tr       *ActiveTrace
	id       uint64
	parentID uint64
	errMsg   string
}

// StartSpan begins a root phase span (a fresh metrics path) and attaches it
// to the returned context so nested StartSpan/ChildContext calls parent
// under it in the trace tree. A nil registry yields a no-op span and the
// context unchanged.
func StartSpan(ctx context.Context, reg *Registry, name string) (context.Context, *Span) {
	if reg == nil {
		return ctx, nil
	}
	s := &Span{reg: reg, ph: reg.phases.child(name), start: timeNow()}
	if at := traceFrom(ctx); at != nil {
		s.tr = at
		s.id = newID()
		if parent := SpanFromContext(ctx); parent != nil && parent.tr == at {
			s.parentID = parent.id
		} else if at.rootID.Load() == 0 {
			// First span of this side of the trace: parent under the remote
			// caller's span so merged client+server trees nest.
			s.parentID = at.remoteParent
		}
		at.rootID.CompareAndSwap(0, s.id)
		ctx = context.WithValue(ctx, spanCtxKey{}, s)
	}
	return ctx, s
}

// Child begins a nested span whose metrics path extends the parent's and
// whose trace parent is the parent span. Use ChildContext when downstream
// code must see the child via the context.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{reg: s.reg, ph: s.ph.child(name), start: timeNow()}
	if s.tr != nil {
		c.tr = s.tr
		c.id = newID()
		c.parentID = s.id
	}
	return c
}

// ChildContext is Child plus context attachment: the returned context
// carries the child span, so spans started under it (possibly on the other
// side of an API boundary) nest beneath it in the trace.
func (s *Span) ChildContext(ctx context.Context, name string) (context.Context, *Span) {
	c := s.Child(name)
	if c != nil && c.tr != nil {
		ctx = context.WithValue(ctx, spanCtxKey{}, c)
	}
	return ctx, c
}

// SetError marks the span failed; the message lands in the trace record and
// makes the whole trace eligible for tail capture.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// End stops the span, records its duration into the registry (and into the
// trace, when traced) and returns it. End is idempotent; only the first
// call records.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := timeNow().Sub(s.start)
	if s.ended {
		return d
	}
	s.ended = true
	s.ph.histogram(s.reg).Observe(d.Seconds())
	if s.tr != nil {
		s.tr.record(SpanRecord{
			SpanID:        s.id,
			ParentID:      s.parentID,
			Name:          s.ph.path,
			StartUnixNano: s.start.UnixNano(),
			DurationNanos: int64(d),
			Err:           s.errMsg,
		})
	}
	return d
}

// phase is one node of a registry's phase tree: a span path, its
// phase_seconds histogram and the phases nested under it. The root (the
// registry's phases) has the empty path and holds the root spans. Span names
// are a fixed set in the code, so the tree stays as small as the set of
// paths the registry's histograms already name.
type phase struct {
	path     string
	prefix   string                    // a child's path is prefix + name: path + "/", or "" at the root
	hist     atomic.Pointer[Histogram] // resolved at the first End, so a span that never ends leaves no series
	children sync.Map                  // name -> *phase
}

// child returns the phase nested under p by name, resolving it on first use.
func (p *phase) child(name string) *phase {
	if c, ok := p.children.Load(name); ok {
		return c.(*phase)
	}
	path := p.prefix + name
	c, _ := p.children.LoadOrStore(name, &phase{path: path, prefix: path + "/"})
	return c.(*phase)
}

// histogram returns the phase's phase_seconds{phase=<path>} histogram in reg.
func (p *phase) histogram(reg *Registry) *Histogram {
	if h := p.hist.Load(); h != nil {
		return h
	}
	h := reg.Histogram(L("phase_seconds", "phase", p.path))
	p.hist.Store(h)
	return h
}
