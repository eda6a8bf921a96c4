package server

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/router"
)

// TestSearchMetricNames pins the phase_seconds and client_* series one
// routed search records — client, router, server and engine — against
// testdata/search_metric_names.txt. The client, the router and the server
// record into one fresh registry; the engine's repo/search phases go to the
// process-wide one, where only the series the search grew are taken. The
// names are what dashboards and the benchmark's layer split read, so how a
// span or a request histogram is resolved must not change one.
func TestSearchMetricNames(t *testing.T) {
	svc := memSvc(t)
	repo, err := svc.CreateRepository("names", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	cc := newCoreClient(t, nil)
	for i, text := range []string{"observable beach sunset", "mountain snow", "city lights", "beach storm"} {
		up, err := cc.PrepareUpdate(&core.Object{ID: fmt.Sprintf("n-%d", i), Owner: "alice", Text: text}, dataKey())
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.UpdateContext(context.Background(), up); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	q, err := cc.PrepareQuery(&core.Object{ID: "q", Text: "beach sunset"}, 3)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv, err := New("127.0.0.1:0", svc, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	rt, err := router.Start(router.Config{Nodes: []router.Node{{Name: "leader", Addr: srv.Addr()}}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	conn, err := client.Dial(rt.Addr(), nil, client.WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })

	before := obs.Default().Snapshot().Histograms
	if hits, err := conn.Search(testCtx, "names", q); err != nil || len(hits) == 0 {
		t.Fatalf("search: %d hits, %v", len(hits), err)
	}
	// The server ends its spans after writing the reply; its request
	// histogram is observed last.
	served := reg.Histogram(obs.L("server_request_seconds", "kind", "search"))
	for deadline := time.Now().Add(5 * time.Second); served.Count() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never finished the search")
		}
	}

	var got []string
	take := func(name string) {
		if strings.HasPrefix(name, "phase_seconds{") || strings.HasPrefix(name, "client_") {
			got = append(got, name)
		}
	}
	snap := reg.Snapshot()
	for name := range snap.Counters {
		take(name)
	}
	for name := range snap.Gauges {
		take(name)
	}
	for name := range snap.Histograms {
		take(name)
	}
	for name, h := range obs.Default().Snapshot().Histograms {
		if strings.HasPrefix(name, "phase_seconds{phase=repo/search") && h.Count > before[name].Count {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	raw, err := os.ReadFile("testdata/search_metric_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("one routed search records\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
