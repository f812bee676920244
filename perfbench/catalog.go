package main

// A metric is one number the benchmark reports. Per-layer metrics also
// name the end-to-end metrics they should move and on which workloads;
// README.md tabulates that map and a test keeps it, BENCHMARK.json and
// this catalog in step.
type metric struct {
	name, unit, better string
	moves              string // end-to-end metrics this one should move
	on                 string // workloads where it should move them
}

// endToEnd are the metrics a run reports with tracing off. The
// simulated statistics and error_frac are printed beside them but are
// not gated metrics: see README.md.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// simulated are the statistics in simulated time, deterministic per
// seed; a change that only speeds the simulator up leaves them
// bit-identical. semester-sweep has neither.
var simulated = []metric{
	{name: "sim_p95_ms", unit: "ms", better: "lower"},
	{name: "sim_fail_frac", unit: "fraction", better: "lower"},
}

// perLayer are the metrics of the traced run.
var perLayer = []metric{
	{"scenario.run_s", "s", "lower", "wall_s", "all"},
	{"scenario.plan_s", "s", "lower", "setup_s", "mooc-hybrid"},
	{"scenario.fluid_s", "s", "lower", "cpu_s", "semester-sweep, mooc-hybrid"},
	{"scenario.windows_s", "s", "lower", "wall_s, cpu_s", "mooc-hybrid"},
	{"scenario.stitch_s", "s", "lower", "wall_s, cpu_s", "mooc-hybrid"},
	{"scenario.desreq_self_s", "s", "lower", "cpu_s", "exam-crowd"},
	{"pool.jobs", "count", "lower", "wall_s", "mooc-hybrid"},
	{"pool.idle_s", "s", "lower", "wall_s", "mooc-hybrid"},
	{"pool.peak_concurrent", "count", "higher", "wall_s", "mooc-hybrid"},
	{"pool.parallel_eff", "fraction", "higher", "wall_s", "mooc-hybrid"},
	{"shard.count", "count", "higher", "wall_s, sim_p95_ms", "mooc-hybrid"},
	{"shard.imbalance", "ratio", "lower", "wall_s, sim_p95_ms", "mooc-hybrid"},
	{"sim.events", "count", "lower", "cpu_s, alloc_mb", "exam-crowd, mooc-hybrid"},
	{"sim.events_per_arrival", "ratio", "lower", "cpu_s, alloc_mb", "exam-crowd, mooc-hybrid"},
	{"sim.ns_per_event", "ns", "lower", "cpu_s", "exam-crowd, mooc-hybrid"},
	{"sim.allocs_per_event", "count", "lower", "cpu_s, alloc_mb", "exam-crowd, mooc-hybrid"},
	{"sim.bytes_per_event", "B", "lower", "cpu_s, alloc_mb", "exam-crowd, mooc-hybrid"},
	{"workload.arrivals", "count", "lower", "cpu_s", "exam-crowd"},
	{"workload.gen_s", "s", "lower", "cpu_s", "exam-crowd"},
	{"workload.ns_per_arrival", "ns", "lower", "cpu_s", "exam-crowd"},
	{"workload.accept_ratio", "fraction", "higher", "cpu_s", "exam-crowd"},
	{"deploy.build_s", "s", "lower", "cpu_s", "mooc-hybrid"},
	{"deploy.build_mb", "MB", "lower", "alloc_mb, peak_rss_mb", "mooc-hybrid"},
	{"deploy.engines", "count", "lower", "cpu_s, alloc_mb, peak_rss_mb", "mooc-hybrid"},
	{"lms.served", "count", "higher", "sim_fail_frac, sim_p95_ms", "exam-crowd, mooc-hybrid"},
	{"lms.rejected", "count", "lower", "sim_fail_frac, sim_p95_ms", "exam-crowd, mooc-hybrid"},
	{"lms.admit_ratio", "fraction", "higher", "sim_fail_frac, sim_p95_ms", "exam-crowd, mooc-hybrid"},
	{"lms.carried_in", "count", "lower", "sim_fail_frac, sim_p95_ms", "mooc-hybrid"},
	{"lms.carried_out", "count", "lower", "sim_fail_frac, sim_p95_ms", "mooc-hybrid"},
	{"scale.peak_servers", "count", "lower", "sim_p95_ms, sim_fail_frac", "exam-crowd, mooc-hybrid"},
	{"scale.vm_hours", "h", "lower", "sim_p95_ms, sim_fail_frac", "exam-crowd, mooc-hybrid"},
	{"hybrid.windows", "count", "lower", "all", "mooc-hybrid"},
	{"hybrid.des_hours", "h", "lower", "all", "mooc-hybrid"},
	{"hybrid.fluid_hours", "h", "higher", "all", "mooc-hybrid"},
	{"gc.cycles", "count", "lower", "cpu_s", "exam-crowd, mooc-hybrid"},
	{"gc.cpu_s", "s", "lower", "cpu_s", "exam-crowd, mooc-hybrid"},
	{"gc.cpu_frac", "fraction", "lower", "cpu_s", "exam-crowd, mooc-hybrid"},
	{"sim_p95_ms", "ms", "lower", "none (a simulated outcome; 0 on semester-sweep)", "exam-crowd, mooc-hybrid"},
	{"sim_fail_frac", "fraction", "lower", "none (a simulated outcome; 0 on semester-sweep)", "exam-crowd, mooc-hybrid"},
	{"trace.overhead_frac", "fraction", "lower", "none (measures the tracing)", "all"},
}
