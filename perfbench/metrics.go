package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; TestBenchmarkJSONMatches keeps the two in
// step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics an untraced run reports: what a user of the
// pipeline pays, per measured pass.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics a traced run reports. Every traced run reports
// all of them; a layer the workload does not call reads 0.
var perLayer = []metricDef{
	{"behavior.gen_s", "s", "lower", 0},
	{"engine.run_s", "s", "lower", 0},
	{"engine.sched_events", "count", "lower", 0},
	{"engine.sched_events_max_node", "count", "lower", 0},
	{"engine.sched_events_per_s", "1/s", "higher", 0},
	{"engine.first_session_s", "s", "lower", 0},
	{"stream.peak_pending", "count", "lower", 0},
	{"stream.spilled", "count", "lower", 0},
	{"stream.sink_s", "s", "lower", 0},
	{"stream.emit_gap_p99_ms", "ms", "lower", 0},
	{"stream.merge_s", "s", "lower", 0},
	{"stream.merge_intake_blocked_s", "s", "lower", 0},
	{"trace.read_s", "s", "lower", 0},
	{"trace.file_mb", "MB", "lower", 0},
	{"trace.hash_s", "s", "lower", 0},
	{"filter.apply_s", "s", "lower", 0},
	{"analysis.enrich_s", "s", "lower", 0},
	{"analysis.figures_s", "s", "lower", 0},
	{"core.fits_s", "s", "lower", 0},
	{"dist.bootstrap_s", "s", "lower", 0},
	{"core.parallel_speedup", "x", "higher", 0},
	{"report.render_s", "s", "lower", 0},
	{"ingest.drain_s", "s", "lower", 0},
	{"ingest.events_per_s", "1/s", "higher", 0},
	{"ingest.intake_blocked_s", "s", "lower", 0},
	{"ingest.frames", "count", "lower", 0},
	{"ingest.bytes_per_event", "B", "lower", 0},
	{"ingest.ack_rtt_p50_ms", "ms", "lower", 0},
	{"ingest.ack_rtt_p99_ms", "ms", "lower", 0},
	{"ingest.reconnects", "count", "lower", 0},
	{"runtime.cpu_s", "s", "lower", 0},
	{"runtime.cpu_util", "fraction", "higher", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.mallocs_m", "1e6", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_s", "s", "lower", 0},
	{"bench.trace_overhead_s", "s", "lower", 0},
}
