package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/leakcheck"
	"mie/internal/obs"
)

// WithTracer installs the distributed tracer requests join (propagated
// TraceID/SpanID from request envelopes) and completed traces land in, in
// place of the obs.DefaultTracer() every server outside the tests uses.
func WithTracer(t *obs.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// TestTracePropagatesEndToEnd drives one traced search through a real TCP
// round trip and asserts the acceptance property of the tracing subsystem:
// client and server report the SAME TraceID, the server's span fragment
// nests under the client's operation span, and the merged tree contains the
// client op, the server dispatch and the per-modality engine lookup.
func TestTracePropagatesEndToEnd(t *testing.T) {
	leakcheck.Check(t)

	srvTracer := obs.NewTracer(obs.NewRegistry(), 64)
	cliTracer := obs.NewTracer(obs.NewRegistry(), 64)

	srv, err := New("127.0.0.1:0", memSvc(t), nil, WithTracer(srvTracer))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })

	cc := newCoreClient(t, nil)
	if err := conn.CreateRepository(testCtx, "r", smallOpts()); err != nil {
		t.Fatal(err)
	}
	obj := &core.Object{ID: "o1", Text: "beach sunset", Image: classImage(1, 1)}
	up, err := cc.PrepareUpdate(obj, dataKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Update(testCtx, "r", up); err != nil {
		t.Fatal(err)
	}
	if err := conn.Train(testCtx, "r"); err != nil {
		t.Fatal(err)
	}

	// Force a client-originated trace around one search, the way
	// mie-client -trace does.
	ctx, at := cliTracer.ForceTrace(context.Background())
	ctx, rootSp := obs.StartSpan(ctx, obs.NewRegistry(), "cli/search")
	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "beach"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Search(ctx, "r", q); err != nil {
		t.Fatal(err)
	}
	rootSp.End()
	local := at.Finish()
	if local == nil {
		t.Fatal("client trace not kept")
	}

	// The server publishes its fragment after writing the response; fetch it
	// back over the wire with a brief retry, as the CLI does.
	var remote *obs.Trace
	deadline := time.Now().Add(2 * time.Second)
	for {
		remote, err = conn.FetchTrace(context.Background(), local.TraceID)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("fetch server trace: %v", err)
	}
	if remote.TraceID != local.TraceID {
		t.Fatalf("trace ids differ: client %x server %x", local.TraceID, remote.TraceID)
	}

	// The client fragment: cli/search root, op/search child.
	spanID := map[string]uint64{}
	parent := map[string]uint64{}
	for _, s := range local.Spans {
		spanID[s.Name], parent[s.Name] = s.SpanID, s.ParentID
	}
	if parent["cli/search"] != 0 {
		t.Errorf("cli/search has parent %x", parent["cli/search"])
	}
	if parent["op/search"] != spanID["cli/search"] {
		t.Error("op/search not parented under cli/search")
	}

	// The server fragment: rpc/search parented under the client's op/search
	// span (remote parent linkage), engine phases nested below.
	for _, s := range remote.Spans {
		spanID[s.Name], parent[s.Name] = s.SpanID, s.ParentID
	}
	if parent["rpc/search"] != spanID["op/search"] {
		t.Errorf("rpc/search parents under %x, want client op span %x",
			parent["rpc/search"], spanID["op/search"])
	}
	if parent["rpc/search/engine"] != spanID["rpc/search"] {
		t.Error("engine span not nested under server dispatch")
	}
	if parent["repo/search"] != spanID["rpc/search/engine"] {
		t.Error("core search span not nested under engine span")
	}
	found := false
	for name := range spanID {
		if strings.HasPrefix(name, "repo/search/") && strings.HasSuffix(name, "_lookup") {
			found = true
			if parent[name] != spanID["repo/search"] {
				t.Errorf("%s not nested under repo/search", name)
			}
		}
	}
	if !found {
		t.Errorf("no per-modality lookup span in server fragment: %v", keys(spanID))
	}

	// Rendering the merged tree must produce one connected trace: exactly one
	// top-level root.
	tree := obs.RenderTraceTree(local, remote)
	if !strings.Contains(tree, "└─ cli/search") || strings.Count(tree, "\n└─")+strings.Count(tree, ")\n└─") < 1 {
		t.Errorf("merged tree lacks single client root:\n%s", tree)
	}
	if !strings.Contains(tree, "rpc/search") {
		t.Errorf("merged tree lacks server fragment:\n%s", tree)
	}
}

func keys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
