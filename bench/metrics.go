package main

// metricDef is one metric of BENCHMARK.json: the benchmark prints every
// end-to-end metric for every workload of an untraced run and every
// per-layer metric for every workload of a traced run, by these names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees: how fast an answer comes
// back, what it costs in the paper's §6.3 measures and in memory, and how
// often it is sound. Bound is the share of the parent's median by which a
// later change may make the metric worse. One bound serves every listed
// workload, so each is set by the noisiest of them on the reference box —
// about three times the widest spread seen over ten seeds (README.md has
// the table) — and capped at a quarter.
//
// CPU time is not among them. The benchmark runs on a few cores of a
// shared host that bills identical work 1.0× or 1.8× of its CPU time
// depending on what the neighbours do, for stretches longer than a run,
// so no figure proportional to CPU time repeats within any bound worth
// holding; process.cpu_ms_per_op is reported with the per-layer metrics,
// which carry no bound. What the listed workloads time is bound by δ.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"latency_ms_mid", "ms", "lower", 0.15},
	{"latency_ms_p90", "ms", "lower", 0.15},
	{"msgs_per_op", "count", "lower", 0.25},
	{"wire_kb_per_op", "KiB", "lower", 0.15},
	{"allocs_per_op", "count", "lower", 0.20},
	{"alloc_kb_per_op", "KiB", "lower", 0.12},
	{"peak_heap_mb", "MiB", "lower", 0.15},
	{"valid_share", "ratio", "higher", 0.05},
}

// perLayer is the traced run's output, grouped by the repository's
// packages. A metric a workload does not exercise reads 0 there (the
// stream metrics on a one-shot workload, the transport metrics on the
// simulator); probe metrics are workload-independent and always filled.
var perLayer = []metricDef{
	// fm: probes at c=64, 32-bit vectors.
	{Name: "fm.or_ns", Unit: "ns", Better: "lower"},
	{Name: "fm.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "fm.clone_bytes", Unit: "B", Better: "lower"},
	{Name: "fm.equal_ns", Unit: "ns", Better: "lower"},
	{Name: "fm.covers_ns", Unit: "ns", Better: "lower"},
	{Name: "fm.estimate_ns", Unit: "ns", Better: "lower"},
	{Name: "fm.countset_ns", Unit: "ns", Better: "lower"},
	// agg: probes.
	{Name: "agg.new_partial_ns", Unit: "ns", Better: "lower"},
	{Name: "agg.combine_ns", Unit: "ns", Better: "lower"},
	{Name: "agg.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "agg.combine_min_ns", Unit: "ns", Better: "lower"},
	// wire: probes on a real WILDFIRE broadcast frame.
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.framesize_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_bytes_count", Unit: "B", Better: "lower"},
	{Name: "wire.frame_bytes_min", Unit: "B", Better: "lower"},
	// protocol: handler decorator and §6.3 per-query stats.
	{Name: "protocol.callbacks_per_op", Unit: "count", Better: "lower"},
	{Name: "protocol.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "protocol.self_ns_per_callback", Unit: "ns", Better: "lower"},
	{Name: "protocol.max_host_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "protocol.time_cost_hops", Unit: "count", Better: "lower"},
	{Name: "protocol.install_us_per_op", Unit: "us", Better: "lower"},
	// node: spans, matcher, registry counters.
	{Name: "node.instantiate_us_per_op", Unit: "us", Better: "lower"},
	{Name: "node.instantiate_ns_per_host", Unit: "ns", Better: "lower"},
	{Name: "node.start_query_us", Unit: "us", Better: "lower"},
	{Name: "node.recv_enqueue_ns", Unit: "ns", Better: "lower"},
	{Name: "node.queue_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "node.queue_wait_us_p99", Unit: "us", Better: "lower"},
	{Name: "node.converge_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "node.await_overshoot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "node.early_read_share", Unit: "ratio", Better: "higher"},
	{Name: "node.dropped_per_op", Unit: "count", Better: "lower"},
	{Name: "node.do_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "node.peak_goroutines", Unit: "count", Better: "lower"},
	// transport: decorator, matcher, loopback probes.
	{Name: "transport.send_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.deliver_lag_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.deliver_lag_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.late_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.chan_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.tcp_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.tcp_bytes_per_frame", Unit: "B", Better: "lower"},
	// churn: probes.
	{Name: "churn.sessions_schedule_us", Unit: "us", Better: "lower"},
	{Name: "churn.uniform_schedule_us", Unit: "us", Better: "lower"},
	{Name: "churn.index_build_us", Unit: "us", Better: "lower"},
	{Name: "churn.alive_at_ns", Unit: "ns", Better: "lower"},
	// oracle: probes.
	{Name: "oracle.compute_us_60", Unit: "us", Better: "lower"},
	{Name: "oracle.compute_us_2k", Unit: "us", Better: "lower"},
	{Name: "oracle.interval_us_60", Unit: "us", Better: "lower"},
	// stream: spans on stream60_churn, probes for slice and bounds.
	{Name: "stream.start_us", Unit: "us", Better: "lower"},
	{Name: "stream.open_jitter_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "stream.slice_us", Unit: "us", Better: "lower"},
	{Name: "stream.bounds_us", Unit: "us", Better: "lower"},
	// sim: spans on sim2k_churn.
	{Name: "sim.new_network_us", Unit: "us", Better: "lower"},
	{Name: "sim.apply_churn_us", Unit: "us", Better: "lower"},
	{Name: "sim.run_ms_wildfire_count", Unit: "ms", Better: "lower"},
	{Name: "sim.run_ms_spanningtree", Unit: "ms", Better: "lower"},
	{Name: "sim.run_ms_dag", Unit: "ms", Better: "lower"},
	{Name: "sim.run_ms_wildfire_min", Unit: "ms", Better: "lower"},
	{Name: "sim.run_ms_wildfire_max", Unit: "ms", Better: "lower"},
	{Name: "sim.delivered_per_s", Unit: "1/s", Better: "higher"},
	// obs: probes.
	{Name: "obs.frame_ns_instrumented", Unit: "ns", Better: "lower"},
	{Name: "obs.frame_ns_nil", Unit: "ns", Better: "lower"},
	{Name: "obs.trace_record_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.snapshot_us", Unit: "us", Better: "lower"},
	// topology and graph: probes at 2,048 hosts.
	{Name: "topology.generate_ms_2k", Unit: "ms", Better: "lower"},
	{Name: "graph.diameter_ms_2k", Unit: "ms", Better: "lower"},
	// the whole process: getrusage user+sys per op of the traced run's
	// untraced half, and what the instrumentation adds to it.
	{Name: "process.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
