package main

// This file is the benchmark's fixed specification: the four workloads, the
// metric names with their units, directions and bounds, and the size
// constants of each scale. BENCHMARK.json at the repository root restates the
// metric and workload tables for the driver; TestSpecMatchesBenchmarkJSON
// keeps the two identical.

// Workload names. Later issues refer to workloads by these names.
const (
	wlSearchLarge   = "search-large"
	wlFanoutSmall   = "fanout-small"
	wlIngestDurable = "ingest-durable"
	wlMobileMixed   = "mobile-mixed"
)

// workloadSpec names a workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wlSearchLarge, "engine-bound: pre-encoded multimodal searches on one large trained repository; index, fusion and ranking work must show here, transport work much less"},
	{wlFanoutSmall, "transport-bound: pre-encoded text searches spread over many tiny repositories, half of them read from the follower; codec, relay and dispatch work must show here, engine work must not"},
	{wlIngestDurable, "write path: pre-encoded overwrite/insert/remove mix at sync=always; WAL append, fsync, replication ship and apply must show here, read-path work must not"},
	{wlMobileMixed, "the paper's scenario: one public mie handle doing search/add/remove including client-side extraction, DPE and AES, with a retrain mid-run; client-side work shows only here"},
}

// metricSpec is one named metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndSpecs are the metrics a user or operator of the deployment sees.
// Every workload reports every one of them (the driver's contract); what
// "op" means on each workload is the workload's own operation — see
// README.md. Everything that is a time carries the widest bound the
// contract allows: the sandbox this was sized on shares its cache, memory
// and disk with other tenants, and the same run's times drift by up to 1.5×
// over minutes, whatever runs on it.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"bytes_per_op", "B", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.25},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.02},
}

// perLayerSpecs are the single-layer metrics of the traced run, grouped by
// the package they measure.
var perLayerSpecs = []metricSpec{
	// core.Client + imaging + dpe + crypto
	{Name: "client.encode_update_ms", Unit: "ms", Better: "lower"},
	{Name: "client.encode_query_ms", Unit: "ms", Better: "lower"},
	{Name: "imaging.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "dpe.dense_encode_us", Unit: "us", Better: "lower"},
	{Name: "crypto.encrypt_us", Unit: "us", Better: "lower"},
	// wire
	{Name: "wire.update_req_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.search_req_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.search_resp_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.encode_update_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_update_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_search_resp_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_search_resp_us", Unit: "us", Better: "lower"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower"},
	// client + server
	{Name: "server.search_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.update_overhead_ms", Unit: "ms", Better: "lower"},
	// router
	{Name: "router.relay_search_ms", Unit: "ms", Better: "lower"},
	{Name: "router.relay_update_ms", Unit: "ms", Better: "lower"},
	{Name: "router.follower_read_share", Unit: "ratio", Better: "higher"},
	// core (engine)
	{Name: "core.search_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_untrained_ms", Unit: "ms", Better: "lower"},
	{Name: "core.update_ms", Unit: "ms", Better: "lower"},
	{Name: "core.remove_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_full_s", Unit: "s", Better: "lower"},
	{Name: "core.retrain_s", Unit: "s", Better: "lower"},
	{Name: "core.retrain_incremental", Unit: "ratio", Better: "higher"},
	{Name: "core.retrain_delta_docs", Unit: "count", Better: "lower"},
	// index
	{Name: "index.segments", Unit: "count", Better: "lower"},
	{Name: "index.memtable_docs", Unit: "count", Better: "lower"},
	{Name: "index.dead_docs", Unit: "count", Better: "lower"},
	{Name: "index.compactions", Unit: "count", Better: "lower"},
	// wal
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_update", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_update", Unit: "B", Better: "lower"},
	// replica
	{Name: "replica.lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.lag_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.catchup_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.records_per_batch", Unit: "count", Better: "higher"},
	// core (durability)
	{Name: "core.recovery_us_per_record", Unit: "us", Better: "lower"},
	{Name: "core.recovery_replayed_records", Unit: "count", Better: "lower"},
	{Name: "core.snapshot_s", Unit: "s", Better: "lower"},
	// process, over the staircase window
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower"},
	// staircase top stairs and self-checks
	{Name: "stair.search_top_ms", Unit: "ms", Better: "lower"},
	{Name: "stair.update_top_ms", Unit: "ms", Better: "lower"},
	{Name: "stair.ops", Unit: "count", Better: "higher"},
	{Name: "trace.layers_sum_ratio.search", Unit: "ratio", Better: "lower"},
	{Name: "trace.layers_sum_ratio.update", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// scale holds every size constant of a run. The engine shape of the full
// scale is experiments.Default()'s (48 px images, pyramid {16, 32} → 29
// descriptors per object, Dense-DPE OutDim 2048, 200 visual words, tree 4×3,
// k = 10); corpus sizes are what fits the driver's wall-clock cap. The tiny
// scale exists for the unit tests only.
type scale struct {
	Name string `json:"name"`

	ImageSize  int   `json:"image_size"`
	Pyramid    []int `json:"pyramid"`
	OutDim     int   `json:"out_dim"`
	Words      int   `json:"words"`
	TrainIters int   `json:"train_iters"`
	TreeBranch int   `json:"tree_branch"`
	TreeHeight int   `json:"tree_height"`
	SampleCap  int   `json:"training_sample_cap"`
	K          int   `json:"k"`

	LargeObjects int `json:"search_large_objects"`
	LargeQueries int `json:"search_large_queries"`

	FanoutRepos int `json:"fanout_repos"`
	FanoutDocs  int `json:"fanout_docs_per_repo"`
	FanoutVocab int `json:"fanout_vocab"`

	IngestObjects int `json:"ingest_objects"`
	IngestPool    int `json:"ingest_pool"`

	MobileObjects int `json:"mobile_objects"`
	MobilePool    int `json:"mobile_pool"`

	// WarmupOps is the untimed operations each client issues at the end of
	// set-up, a multiple of mobile-mixed's 20-op block. bytes_per_op is
	// counted over them and heap_live_mb sampled right after them: a fixed
	// stretch of the seeded sequence, so neither depends on how fast the
	// timed run goes.
	WarmupOps int `json:"warmup_ops_per_client"`
	// MinOps keeps a very short run going until its percentiles have enough
	// samples; a run of the driver's length is far past it.
	MinOps int `json:"min_timed_ops"`
	// RetrainAtOp is the timed operation before which mobile-mixed starts
	// its mid-run TrainAsync.
	RetrainAtOp int `json:"retrain_at_op"`
	// ParitySamples is how many queries the router/leader/follower parity
	// check re-issues.
	ParitySamples int `json:"parity_samples"`
	// MicroIters is the iteration count of each layer micro-measurement in
	// the traced run.
	MicroIters int `json:"micro_iters"`
	// LayerSumTolerance is how far trace.layers_sum_ratio.* may sit from 1
	// before the traced run counts a failure. The tiny scale's operations
	// are too short (tens of microseconds per layer) for separately timed
	// stairs to compose, so it does not check.
	LayerSumTolerance float64 `json:"layer_sum_tolerance"`
}

var fullScale = scale{
	Name:      "full",
	ImageSize: 48, Pyramid: []int{16, 32}, OutDim: 2048,
	Words: 200, TrainIters: 15, TreeBranch: 4, TreeHeight: 3, SampleCap: 3000, K: 10,
	LargeObjects: 1500, LargeQueries: 256,
	FanoutRepos: 64, FanoutDocs: 50, FanoutVocab: 5000,
	IngestObjects: 1000, IngestPool: 512,
	MobileObjects: 1000, MobilePool: 512,
	WarmupOps: 400, MinOps: 240, RetrainAtOp: 600, ParitySamples: 100, MicroIters: 200, LayerSumTolerance: 0.15,
}

var tinyScale = scale{
	Name:      "tiny",
	ImageSize: 24, Pyramid: []int{16}, OutDim: 128,
	Words: 16, TrainIters: 4, TreeBranch: 2, TreeHeight: 2, SampleCap: 400, K: 5,
	LargeObjects: 48, LargeQueries: 16,
	FanoutRepos: 6, FanoutDocs: 8, FanoutVocab: 200,
	IngestObjects: 32, IngestPool: 16,
	MobileObjects: 32, MobilePool: 16,
	WarmupOps: 20, MinOps: 220, RetrainAtOp: 60, ParitySamples: 12, MicroIters: 5, LayerSumTolerance: 100,
}
