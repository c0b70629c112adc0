package main

import "time"

// layerMetrics turns one traced measurement into the workload-dependent
// per-layer metrics: span aggregates and matcher results from the tracer,
// §6.3 maxima and registry counters from the runner. Names follow
// metrics.go; a metric the workload does not exercise stays 0, and the
// probe metrics are left for runProbes to fill.
func layerMetrics(w *workload, tr *tracer, m *measurement) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	ops := float64(len(m.outs))
	us := func(ns float64) float64 { return ns / float64(time.Microsecond) }
	ms := func(ns float64) float64 { return ns / float64(time.Millisecond) }
	merged := map[spanKind]*spanAgg{}
	agg := func(k spanKind) *spanAgg {
		if merged[k] == nil {
			merged[k] = tr.aggs[k].merged()
		}
		return merged[k]
	}
	perOp := func(k spanKind) float64 { return float64(agg(k).total.Load()) / ops }

	cb := agg(spCallback)
	out["protocol.callbacks_per_op"] = float64(cb.count.Load()) / ops
	out["protocol.self_us_per_op"] = us(perOp(spCallback))
	out["protocol.self_ns_per_callback"] = cb.mean()
	out["protocol.max_host_msgs_per_op"] = m.layer.maxHostMsgs
	out["protocol.time_cost_hops"] = m.layer.timeCost
	out["protocol.install_us_per_op"] = us(perOp(spInstall))

	out["node.instantiate_us_per_op"] = us(perOp(spInstantiate))
	if h := m.layer.instantiatedHosts; h > 0 {
		out["node.instantiate_ns_per_host"] = float64(agg(spInstantiate).total.Load()) / float64(h)
	}
	out["node.start_query_us"] = us(agg(spStartQuery).mean())
	out["node.recv_enqueue_ns"] = agg(spRecvEnqueue).mean()
	out["node.queue_wait_us_p50"] = us(agg(spQueueWait).quantile(0.50))
	out["node.queue_wait_us_p99"] = us(agg(spQueueWait).quantile(0.99))
	out["node.converge_ms_p50"] = ms(agg(spConverge).quantile(0.50))
	out["node.await_overshoot_ms_p50"] = ms(agg(spOvershoot).quantile(0.50))
	if reads := m.layer.earlyReads + m.layer.capReads; reads > 0 {
		out["node.early_read_share"] = float64(m.layer.earlyReads) / float64(reads)
	}
	out["node.dropped_per_op"] = float64(m.layer.dropped) / ops
	out["node.do_roundtrip_us"] = m.layer.doRoundtripUs
	out["node.peak_goroutines"] = float64(m.peakGor)

	out["transport.send_ns"] = agg(spSend).mean()
	out["transport.frames_per_op"] = float64(agg(spSend).count.Load()) / ops
	if w.static {
		// Under per-query deaths a delivered frame need not reach a handler
		// and a suppressed send never reaches the transport, so the lag and
		// lateness figures are kept to the workloads where matching is exact.
		out["transport.deliver_lag_us_p50"] = us(agg(spDeliverLag).quantile(0.50))
		out["transport.deliver_lag_us_p99"] = us(agg(spDeliverLag).quantile(0.99))
		if n := tr.frames.Load(); n > 0 {
			out["transport.late_share"] = float64(tr.late.Load()) / float64(n)
		}
	}

	out["stream.start_us"] = us(agg(spStreamStart).mean())
	out["stream.open_jitter_ms_p99"] = ms(agg(spOpenJitter).quantile(0.99))

	out["sim.new_network_us"] = us(agg(spSimNewNetwork).mean())
	out["sim.apply_churn_us"] = us(agg(spSimApplyChurn).mean())
	out["sim.run_ms_wildfire_count"] = ms(agg(spSimRunWildfireCount).mean())
	out["sim.run_ms_spanningtree"] = ms(agg(spSimRunSpanningTree).mean())
	out["sim.run_ms_dag"] = ms(agg(spSimRunDAG).mean())
	out["sim.run_ms_wildfire_min"] = ms(agg(spSimRunWildfireMin).mean())
	out["sim.run_ms_wildfire_max"] = ms(agg(spSimRunWildfireMax).mean())
	var simRun int64
	for k := spSimRunWildfireCount; k <= spSimRunWildfireMax; k++ {
		simRun += agg(k).total.Load()
	}
	if simRun > 0 {
		out["sim.delivered_per_s"] = float64(m.layer.delivered) / (float64(simRun) / float64(time.Second))
	}
	return out
}
