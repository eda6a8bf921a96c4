package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestHeadSamplingDecision(t *testing.T) {
	tr := NewTracer(NewRegistry(), 8)

	// Rate 0, no slow threshold: the zero-overhead path — no trace attached.
	ctx, at := tr.StartTrace(context.Background())
	if at != nil || TraceFromContext(ctx) != nil {
		t.Fatal("rate-0 tracer attached a trace")
	}

	// Rate 1: every trace collected and kept as "sampled".
	tr.SetSampleRate(1)
	ctx, at = tr.StartTrace(context.Background())
	if at == nil {
		t.Fatal("rate-1 tracer did not start a trace")
	}
	_, sp := StartSpan(ctx, NewRegistry(), "root")
	sp.End()
	kept := at.Finish()
	if kept == nil || kept.Reason != "sampled" {
		t.Fatalf("kept = %+v, want reason sampled", kept)
	}
	if got, ok := tr.Get(kept.TraceID); !ok || got.Root != "root" {
		t.Fatalf("ring lookup = %+v, %v", got, ok)
	}

	// ForceTrace keeps regardless of rate.
	tr.SetSampleRate(0)
	_, at = tr.ForceTrace(context.Background())
	if at == nil || at.Finish() == nil {
		t.Fatal("forced trace was not kept")
	}
}

func TestTailCaptureSlowAndErrored(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8)
	tr.SetSlowThreshold(time.Nanosecond) // everything with a measured root is slow

	// Unsampled but slow: collected because the threshold is set, kept as "slow".
	ctx, at := tr.StartTrace(context.Background())
	if at == nil {
		t.Fatal("slow-threshold tracer did not collect")
	}
	_, sp := StartSpan(ctx, reg, "slowop")
	time.Sleep(time.Millisecond)
	sp.End()
	if kept := at.Finish(); kept == nil || kept.Reason != "slow" {
		t.Fatalf("kept = %+v, want reason slow", kept)
	}

	// Errored request: kept as "error" even below the slow threshold.
	tr.SetSlowThreshold(time.Hour)
	ctx, at = tr.StartTrace(context.Background())
	_, sp = StartSpan(ctx, reg, "failop")
	sp.SetError(errors.New("boom"))
	sp.End()
	if kept := at.Finish(); kept == nil || kept.Reason != "error" {
		t.Fatalf("kept = %+v, want reason error", kept)
	}

	// Fast and clean under a high threshold: dropped.
	ctx, at = tr.StartTrace(context.Background())
	_, sp = StartSpan(ctx, reg, "fastop")
	sp.End()
	if kept := at.Finish(); kept != nil {
		t.Fatalf("fast clean request kept: %+v", kept)
	}
}

func TestFinishIdempotentAndStaleContext(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8)
	tr.SetSampleRate(1)
	ctx, at := tr.StartTrace(context.Background())
	ctx, sp := StartSpan(ctx, reg, "op")
	if sc := SpanContextFrom(ctx); sc.TraceID != at.traceID || sc.SpanID == 0 || !sc.Sampled {
		t.Fatalf("live span context = %+v", sc)
	}
	sp.End()
	if at.Finish() == nil {
		t.Fatal("first Finish dropped the trace")
	}
	if at.Finish() != nil {
		t.Fatal("second Finish published again")
	}
	// A context derived before Finish must stop propagating the trace.
	if sc := SpanContextFrom(ctx); sc != (SpanContext{}) {
		t.Fatalf("stale context still propagates: %+v", sc)
	}
}

func TestRingEviction(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 4)
	tr.SetSampleRate(1)
	var first uint64
	for i := 0; i < 6; i++ {
		ctx, at := tr.StartTrace(context.Background())
		_, sp := StartSpan(ctx, reg, "op")
		sp.End()
		kept := at.Finish()
		if kept == nil {
			t.Fatal("trace dropped")
		}
		if i == 0 {
			first = kept.TraceID
		}
	}
	if got := len(tr.Traces()); got != 4 {
		t.Fatalf("ring holds %d traces, want 4", got)
	}
	if _, ok := tr.Get(first); ok {
		t.Fatal("oldest trace survived eviction")
	}
}

func TestSpanTreeNesting(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8)
	tr.SetSampleRate(1)
	ctx, at := tr.StartTrace(context.Background())
	ctx, root := StartSpan(ctx, reg, "rpc/search")
	ectx, engine := root.ChildContext(ctx, "engine")
	_, leaf := StartSpan(ectx, reg, "repo/search")
	leaf.End()
	engine.End()
	root.End()
	kept := at.Finish()
	if kept == nil || len(kept.Spans) != 3 {
		t.Fatalf("kept = %+v", kept)
	}
	byName := map[string]SpanRecord{}
	for _, s := range kept.Spans {
		byName[s.Name] = s
	}
	if byName["rpc/search"].ParentID != 0 {
		t.Errorf("root has parent %d", byName["rpc/search"].ParentID)
	}
	if byName["rpc/search/engine"].ParentID != byName["rpc/search"].SpanID {
		t.Error("engine span not parented under root")
	}
	if byName["repo/search"].ParentID != byName["rpc/search/engine"].SpanID {
		t.Error("fresh-path span not parented under engine span")
	}
	if kept.Root != "rpc/search" {
		t.Errorf("root = %q", kept.Root)
	}
}

func TestJoinParentsUnderRemoteSpan(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8)
	const traceID, remoteSpan = 0xabc, 0xdef
	ctx, at := tr.Join(context.Background(), traceID, remoteSpan, true)
	if at == nil || at.traceID != traceID {
		t.Fatalf("join = %+v", at)
	}
	_, sp := StartSpan(ctx, reg, "rpc/op")
	sp.End()
	kept := at.Finish()
	if kept == nil || kept.TraceID != traceID {
		t.Fatalf("kept = %+v", kept)
	}
	if kept.Spans[0].ParentID != remoteSpan {
		t.Errorf("first local span parents under %x, want remote %x", kept.Spans[0].ParentID, remoteSpan)
	}
}

func TestRenderTraceTreeMergesFragments(t *testing.T) {
	clientHalf := &Trace{
		TraceID: 0x1234,
		Root:    "cli/search",
		Reason:  "sampled",
		Spans: []SpanRecord{
			{SpanID: 1, Name: "cli/search", StartUnixNano: 100, DurationNanos: 5e6},
			{SpanID: 2, ParentID: 1, Name: "op/search", StartUnixNano: 200, DurationNanos: 4e6},
		},
	}
	serverHalf := &Trace{
		TraceID: 0x1234,
		Root:    "rpc/search",
		Reason:  "sampled",
		Spans: []SpanRecord{
			{SpanID: 3, ParentID: 2, Name: "rpc/search", StartUnixNano: 300, DurationNanos: 3e6},
			{SpanID: 4, ParentID: 3, Name: "rpc/search/engine", StartUnixNano: 400, DurationNanos: 2e6, Err: "boom"},
		},
	}
	out := RenderTraceTree(clientHalf, serverHalf)
	if !strings.HasPrefix(out, "trace 0000000000001234 (sampled)") {
		t.Errorf("header wrong:\n%s", out)
	}
	// The server fragment must nest under the client op span, not float as a
	// second root.
	want := []string{
		"└─ cli/search 5.000ms",
		"   └─ op/search 4.000ms",
		"      └─ rpc/search 3.000ms",
		`         └─ rpc/search/engine 2.000ms err="boom"`,
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")[1:]
	if len(lines) != len(want) {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}
