// Package obs is the observability substrate of the MIE reproduction: a
// concurrent metrics registry (counters, gauges, fixed-bucket latency
// histograms), lightweight phase spans for attributing wall time the way the
// paper's Tables 2-3 and Figures 5-8 do (client encode vs. cloud
// train/index/search), and an opt-in HTTP debug server exposing /metrics,
// /debug/vars and net/http/pprof. Logging is log/slog, passed in by callers.
//
// The package is stdlib-only by design: the reproduction must run in
// hermetic environments, and the exposition format is a plain-text subset of
// the Prometheus format so standard scrapers still understand it.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// defaultRegistry is the process-wide registry. Core, server and client
// instrumentation all record here unless explicitly configured otherwise, so
// one /metrics endpoint shows the whole pipeline (client encode through cloud
// search), mirroring how the paper attributes end-to-end time.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Registry is a concurrent collection of named metrics. Metric handles are
// created on first use and live for the registry's lifetime; lookups take a
// read lock, updates are lock-free atomics.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// L composes a metric name with label pairs: L("requests_total", "kind",
// "search") -> `requests_total{kind=search}`. Labels are part of the metric
// identity; callers must pass them in a consistent order.
func L(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (sizes, in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add applies a delta (use negative n to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultDurationBuckets spans 100µs to 60s, the range between one index
// probe and a paper-scale Hom-MSSE training run. Values are upper bounds in
// seconds; observations beyond the last bound land in the implicit +Inf
// bucket.
var DefaultDurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram of float64 observations (by
// convention, seconds). Observation is lock-free; Snapshot gives a
// consistent-enough view for monitoring (buckets are read individually, so a
// snapshot taken during a burst may be off by in-flight observations).
type Histogram struct {
	bounds []float64       // sorted upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultDurationBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket; values in the overflow bucket report the
// largest finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if seen+n >= rank && n > 0 {
			if i >= len(h.bounds) { // overflow bucket: no finite upper bound
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - seen) / n
			return lo + frac*(h.bounds[i]-lo)
		}
		seen += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Counter returns (creating if needed) the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating if needed) the histogram with the given name.
// Bucket bounds are fixed at creation; later calls ignore the bounds
// argument. Empty bounds take DefaultDurationBuckets.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.histograms[name] = h
	return h
}

// HistogramSnapshot is the read-out of one histogram.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative histogram bucket; Le is the inclusive upper
// bound ("+Inf" for the overflow bucket).
type BucketCount struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// Snapshot is a point-in-time copy of every metric in a registry, shaped for
// JSON serialization (/metrics.json, expvar "mie").
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		s.Buckets = append(s.Buckets, BucketCount{Le: le, Count: cum})
	}
	return s
}

// Snapshot copies out every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteMetrics writes a plain-text exposition of every metric, sorted by
// name: `name value` lines for counters and gauges; `_count`, `_sum`,
// cumulative `_bucket{le=...}` and quantile lines for histograms.
func (r *Registry) WriteMetrics(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(&b, "%s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(&b, "%s %d\n", name, snap.Gauges[name])
	}
	hnames := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := snap.Histograms[name]
		fmt.Fprintf(&b, "%s %d\n", suffixed(name, "_count"), h.Count)
		fmt.Fprintf(&b, "%s %s\n", suffixed(name, "_sum"), formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s %s\n", withLabel(name, "quantile", "0.5"), formatFloat(h.P50))
		fmt.Fprintf(&b, "%s %s\n", withLabel(name, "quantile", "0.95"), formatFloat(h.P95))
		fmt.Fprintf(&b, "%s %s\n", withLabel(name, "quantile", "0.99"), formatFloat(h.P99))
		for _, bc := range h.Buckets {
			fmt.Fprintf(&b, "%s %d\n", withLabel(suffixed(name, "_bucket"), "le", bc.Le), bc.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// suffixed inserts a suffix before the label braces: suffixed("a{k=v}",
// "_sum") -> "a_sum{k=v}".
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// withLabel appends one label, merging into existing braces.
func withLabel(name, key, value string) string {
	pair := key + "=" + value
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + pair + "}"
	}
	return name + "{" + pair + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
