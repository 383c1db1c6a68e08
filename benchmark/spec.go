package main

// spec.go declares what the harness reports: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repo root carries the same lists (the
// smoke test keeps the two in step); the bounds here drive -repeat.

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the median it may worsen by
}

// Workload names, in the order the full set runs.
const (
	wlDRAM      = "dram-matvec"
	wlGFServe   = "gf-batch-serve"
	wlStraggler = "straggler-mix"
	wlSimPaper  = "sim-paper"
)

var workloadNames = []string{wlDRAM, wlGFServe, wlStraggler, wlSimPaper}

// End-to-end metric names.
const (
	mSetup   = "setup_s"
	mRounds  = "rounds_per_s"
	mP50     = "round_p50_ms"
	mP95     = "round_p95_ms"
	mCPU     = "cpu_ms_per_round"
	mRSS     = "peak_rss_mb"
	mSpeedup = "s2c2_speedup"
)

var endToEnd = []metricSpec{
	{mSetup, "s", "lower", 0.25},
	{mRounds, "1/s", "higher", 0.25},
	{mP50, "ms", "lower", 0.25},
	{mP95, "ms", "lower", 0.25},
	{mCPU, "ms", "lower", 0.25},
	{mRSS, "MB", "lower", 0.25},
	{mSpeedup, "ratio", "higher", 0.20},
}

// simStrategies are the four sim-paper strategies, in grid order; the
// names suffix the per-strategy sim.* metrics.
var simStrategies = []string{"general-s2c2", "basic-s2c2", "mds-12-6", "mds-12-10"}

var perLayer = func() []metricSpec {
	l := []metricSpec{
		{Name: "kernel.matvec_ms", Unit: "ms", Better: "lower"},
		{Name: "kernel.matvec_gbps", Unit: "GB/s", Better: "higher"},
		{Name: "kernel.gf_matvec_batch_ms", Unit: "ms", Better: "lower"},
		{Name: "coding.encode_s", Unit: "s", Better: "lower"},
		{Name: "coding.decode_ms", Unit: "ms", Better: "lower"},
		{Name: "coding.decode_share", Unit: "ratio", Better: "lower"},
		{Name: "sched.plan_us", Unit: "us", Better: "lower"},
		{Name: "sched.wasted_row_frac", Unit: "ratio", Better: "lower"},
		{Name: "sched.ranges_per_worker", Unit: "count", Better: "lower"},
		{Name: "rpc.round_ms", Unit: "ms", Better: "lower"},
		{Name: "rpc.round_overhead_ms", Unit: "ms", Better: "lower"},
		{Name: "rpc.round_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "rpc.resp_spread_ms", Unit: "ms", Better: "lower"},
		{Name: "rpc.reassigned_rows_per_round", Unit: "count", Better: "lower"},
		{Name: "rpc.timed_out_per_round", Unit: "count", Better: "lower"},
		{Name: "rpc.mispredicted_round_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "rpc.distribute_s", Unit: "s", Better: "lower"},
		{Name: "rpc.distribute_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "rpc.allocs_per_round", Unit: "count", Better: "lower"},
		{Name: "wire.work_frame_us", Unit: "us", Better: "lower"},
		{Name: "wire.result_frame_us", Unit: "us", Better: "lower"},
		{Name: "wire.bytes_per_round", Unit: "bytes", Better: "lower"},
		{Name: "wire.chunk_stream_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "predict.fit_s", Unit: "s", Better: "lower"},
		{Name: "predict.predict_us", Unit: "us", Better: "lower"},
		{Name: "predict.mape", Unit: "ratio", Better: "lower"},
		{Name: "sim.job_ms", Unit: "ms", Better: "lower"},
	}
	for _, s := range simStrategies {
		l = append(l,
			metricSpec{Name: "sim.virtual_latency_s." + s, Unit: "s", Better: "lower"},
			metricSpec{Name: "sim.mispredict_rate." + s, Unit: "ratio", Better: "lower"},
			metricSpec{Name: "sim.wasted_row_frac." + s, Unit: "ratio", Better: "lower"})
	}
	return append(l,
		metricSpec{Name: "bench.round_self_share", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"})
}()
