package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
)

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(L("server_requests_total", "kind", "search")).Add(2)
	reg.Histogram("request_seconds").Observe(0.003)

	d, err := ServeDebug("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	metrics := getBody(t, base+"/metrics")
	if !strings.Contains(metrics, `server_requests_total{kind="search"} 2`) {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "# TYPE server_requests_total counter") {
		t.Errorf("/metrics missing TYPE header:\n%s", metrics)
	}
	if !strings.Contains(metrics, "request_seconds_count 1") {
		t.Errorf("/metrics missing histogram:\n%s", metrics)
	}
	if !strings.Contains(metrics, "go_goroutines") {
		t.Errorf("/metrics missing runtime metrics:\n%s", metrics)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(getBody(t, base+"/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if snap.Counters["server_requests_total{kind=search}"] != 2 {
		t.Errorf("/metrics.json counters = %+v", snap.Counters)
	}

	vars := getBody(t, base+"/debug/vars")
	if !strings.Contains(vars, "memstats") {
		t.Error("/debug/vars missing memstats")
	}

	if !strings.Contains(getBody(t, base+"/debug/pprof/"), "goroutine") {
		t.Error("/debug/pprof/ index missing goroutine profile")
	}

	if !strings.Contains(getBody(t, base+"/healthz"), "ok") {
		t.Error("/healthz not ok")
	}
}

// A nil logger means "discard" to every constructor that takes one: OrDiscard
// maps it to a logger disabled at every level, and passes a real one through.
func TestNilAndNopLogger(t *testing.T) {
	nop := OrDiscard(nil)
	nop.Error("discarded")
	if nop.Enabled(context.Background(), slog.LevelError) {
		t.Error("OrDiscard(nil) should be disabled at every level")
	}
	lg := slog.New(slog.NewTextHandler(io.Discard, nil))
	if OrDiscard(lg) != lg {
		t.Error("OrDiscard must return a non-nil logger unchanged")
	}
}
