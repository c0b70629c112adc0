package node

import (
	"sort"
	"time"

	"validity/internal/graph"
	"validity/internal/obs"
)

// Observability wiring for the engine. The runtime holds pre-registered
// metric pointers (runtimeMetrics) so every hot-path update is one atomic
// add — and, when no registry is configured, one predictable nil branch:
// the disabled runtime behaves identically to the uninstrumented one, so
// the sim layer's byte-for-byte determinism is untouched. Queue depths
// and heap lengths are surfaced as gauge functions sampled at scrape
// time instead of updated per enqueue, which keeps the inbox and timer
// paths free of extra writes.

// Frame-drop reasons, the labels on node_frames_dropped_total and the
// Detail strings of EvFrameDrop trace events. Static strings: recording
// them allocates nothing.
const (
	dropQueryDead = "query-dead"         // host departed on this query's timeline
	dropRetired   = "retired"            // straggler frame for a retired query
	dropUnknown   = "unknown-query"      // no factory (or invalid id) for the frame
	dropSendErr   = "send-error"         // transport reported the send lost
	dropRejected  = "admission-rejected" // live-query cap reached; not instantiated
)

// runtimeMetrics is the engine's pre-registered counter set. The zero
// value (all nil) is the disabled form.
type runtimeMetrics struct {
	framesIn      *obs.Counter
	delivered     *obs.Counter
	sent          *obs.Counter
	bytesOut      *obs.Counter
	dropQueryDead *obs.Counter
	dropRetired   *obs.Counter
	dropUnknown   *obs.Counter
	dropSendErr   *obs.Counter
	timersFired   *obs.Counter
	instantiated  *obs.Counter
	rejected      *obs.Counter
	retired       *obs.Counter
	compacted     *obs.Counter
	quiesceSent   *obs.Counter
	quiesceRecv   *obs.Counter
	earlyReads    *obs.Counter
	deadlineReads *obs.Counter
}

// initObs registers the runtime's metrics and sampled gauges on reg and
// fills rt.met. Called from New; reg may be nil (disabled).
func (rt *Runtime) initObs(reg *obs.Registry, tracer *obs.Tracer) {
	rt.obs = reg
	rt.trace = tracer
	if reg == nil {
		return
	}
	const drops = "node_frames_dropped_total"
	const dropsHelp = "Frames dropped by the engine, by reason."
	rt.met = runtimeMetrics{
		framesIn:      reg.Counter("node_frames_demuxed_total", "Transport frames demultiplexed to a query."),
		delivered:     reg.Counter("node_messages_delivered_total", "Messages delivered to alive local handlers (§6.3)."),
		sent:          reg.Counter("node_messages_sent_total", "Messages sent by local hosts (§6.3)."),
		bytesOut:      reg.Counter("node_bytes_sent_total", "Canonical wire bytes of sent payloads (§6.3)."),
		dropQueryDead: reg.Counter(drops, dropsHelp, "reason="+dropQueryDead),
		dropRetired:   reg.Counter(drops, dropsHelp, "reason="+dropRetired),
		dropUnknown:   reg.Counter(drops, dropsHelp, "reason="+dropUnknown),
		dropSendErr:   reg.Counter(drops, dropsHelp, "reason="+dropSendErr),
		timersFired:   reg.Counter("node_timers_fired_total", "Protocol timer callbacks fired off the shared heap."),
		instantiated:  reg.Counter("node_queries_instantiated_total", "Query instances materialized (issued or first contact)."),
		rejected:      reg.Counter("engine_queries_rejected_total", "Query instantiations rejected by the live-query admission cap."),
		retired:       reg.Counter("node_queries_retired_total", "Queries whose protocol state was retired."),
		compacted:     reg.Counter("node_queries_compacted_total", "Retired queries compacted to ring summaries."),
		quiesceSent:   reg.Counter("node_quiesce_frames_sent_total", "Quiescence announces sent to issuing processes."),
		quiesceRecv:   reg.Counter("node_quiesce_frames_received_total", "Quiescence announces received from worker processes."),
		earlyReads:    reg.Counter("node_early_reads_total", "AwaitQueryResult reads returned before the hard deadline cap."),
		deadlineReads: reg.Counter("node_deadline_reads_total", "AwaitQueryResult reads that fell through to the hard deadline cap."),
	}
	reg.Gauge("node_shards", "Shard workers executing host callbacks.").Set(int64(len(rt.shards)))
	reg.GaugeFunc("node_shard_queue_depth_max", "Deepest per-shard callback backlog (queued plus parked).", func() float64 {
		var max int
		for _, s := range rt.shards {
			if n := s.depth(); n > max {
				max = n
			}
		}
		return float64(max)
	})
	reg.GaugeFunc("node_shard_queue_depth_total", "Pending callbacks across all shard queues (queued plus parked).", func() float64 {
		var total int
		for _, s := range rt.shards {
			total += s.depth()
		}
		return float64(total)
	})
	reg.GaugeFunc("node_timer_heap_len", "Entries on the shared timer heap.", func() float64 {
		rt.tmu.Lock()
		n := len(rt.theap)
		rt.tmu.Unlock()
		return float64(n)
	})
	reg.GaugeFunc("node_overflow_parked", "Items parked on congested shards' overflow queues.", func() float64 {
		var total int
		for _, s := range rt.shards {
			s.mu.Lock()
			total += s.parked()
			s.mu.Unlock()
		}
		return float64(total)
	})
	reg.GaugeFunc("node_queries_live", "Queries with live (not yet compacted) state.", func() float64 {
		rt.mu.Lock()
		n := len(rt.queries)
		rt.mu.Unlock()
		return float64(n)
	})
	obs.RegisterRuntimeHealth(reg)
}

// Obs returns the runtime's metrics registry (nil when disabled); the
// streaming subsystem and the daemon register their own histograms on it.
func (rt *Runtime) Obs() *obs.Registry { return rt.obs }

// Trace returns the runtime's query tracer (nil when disabled).
func (rt *Runtime) Trace() *obs.Tracer { return rt.trace }

// tickNow is the query's current tick on its own clock (0 before the
// clock arms), the stamp trace events carry.
func (qs *queryState) tickNow(rt *Runtime) int64 {
	start := qs.clockStart.Load()
	if start == nil || rt.hop <= 0 {
		return 0
	}
	return int64(time.Since(*start) / rt.hop)
}

// traceDrop records one dropped frame for qs in the trace ring; the
// matching counter is bumped at the call site. chain is the frame's
// causal depth (0 when no frame is in hand), the tiebreaker the fleet
// merger uses to order same-tick events across processes.
func (rt *Runtime) traceDrop(qs *queryState, h graph.HostID, chain int, reason string) {
	if rt.trace == nil {
		return
	}
	rt.trace.RecordChain(int64(qs.id), obs.EvFrameDrop, int(h), qs.tickNow(rt), chain, reason)
}

// QuerySnapshot is one live query's state for /debug/queries: the §6.3
// counters with the per-host computation array collapsed to its maximum,
// plus the query's current tick, retirement flag and outstanding local
// work (queryState.inflight) — what a read that fell to the cap was still
// waiting on.
type QuerySnapshot struct {
	Query             QueryID `json:"query"`
	Retired           bool    `json:"retired"`
	Tick              int64   `json:"tick"`
	Inflight          int64   `json:"inflight"`
	MessagesSent      int64   `json:"messages_sent"`
	BytesOnWire       int64   `json:"bytes_on_wire"`
	MessagesDelivered int64   `json:"messages_delivered"`
	MessagesDropped   int64   `json:"messages_dropped"`
	MaxComputation    int64   `json:"max_computation"`
	TimeCost          int     `json:"time_cost"`
}

// QuerySnapshots returns a point-in-time view of every query with live
// state on this runtime (including retired-but-not-yet-compacted ones),
// sorted by id. Compacted history is available through RetiredStats.
func (rt *Runtime) QuerySnapshots() []QuerySnapshot {
	rt.mu.Lock()
	qss := make([]*queryState, 0, len(rt.queries))
	for _, e := range rt.queries {
		if e.qs != nil {
			qss = append(qss, e.qs)
		}
	}
	rt.mu.Unlock()
	out := make([]QuerySnapshot, 0, len(qss))
	for _, qs := range qss {
		s := qs.snapshot()
		out = append(out, QuerySnapshot{
			Query:             qs.id,
			Retired:           qs.retired.Load(),
			Tick:              qs.tickNow(rt),
			Inflight:          qs.inflight.Load(),
			MessagesSent:      s.MessagesSent,
			BytesOnWire:       s.BytesOnWire,
			MessagesDelivered: s.MessagesDelivered,
			MessagesDropped:   s.MessagesDropped,
			MaxComputation:    s.MaxComputation(),
			TimeCost:          s.TimeCost,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}
