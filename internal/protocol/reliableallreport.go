package protocol

import (
	"slices"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// ReliableAllReport is ALLREPORT hardened with the §3.1 failure-detection
// machinery: every host monitors its reverse-path parent with heartbeats
// (period T_hb, suspicion after T_hb + δ of silence), buffers the reports
// it has relayed, and when the parent is suspected re-parents to another
// alive neighbor and re-sends the buffer. Reports carry their origin, so
// h_q deduplicates re-sent copies by origin — making the report stream
// duplicate-insensitive the same way WILDFIRE's sketches are.
//
// This closes the gap documented on AllReport: the plain protocol drops a
// report when a reverse-path relay dies even though the origin may still
// have a stable path to h_q. With rerouting, a report reaches h_q
// whenever some path of hosts that stay alive (and get T_hb + δ to notice
// each failure) exists — the routing substrate Theorem 4.3's abstract
// "send its value to h_q" presumes. Detection latency still consumes
// deadline slack, so D̂ should be padded by a few T_hb when heavy churn is
// expected.
type ReliableAllReport struct {
	Query Query
	// Thb is the heartbeat period in ticks (default 2).
	Thb sim.Time

	hosts []*rarHost
}

// NewReliableAllReport returns an uninstalled instance with T_hb = 2.
func NewReliableAllReport(q Query) *ReliableAllReport {
	return &ReliableAllReport{Query: q, Thb: 2}
}

// Name implements Protocol.
func (a *ReliableAllReport) Name() string { return "reliable-allreport" }

// Deadline implements Protocol.
func (a *ReliableAllReport) Deadline() sim.Time { return a.Query.Deadline() }

// Init implements Protocol.
func (a *ReliableAllReport) Init(g *graph.Graph) error {
	if a.Thb < 1 {
		a.Thb = 2
	}
	a.hosts = make([]*rarHost, g.Len())
	return a.Query.Validate(g)
}

// NewHost implements Protocol.
func (a *ReliableAllReport) NewHost(id graph.HostID) sim.Handler {
	h := &rarHost{
		a:       a,
		isHq:    id == a.Query.Hq,
		parent:  graph.None,
		relayed: make(map[graph.HostID]bool),
		seen:    make(map[graph.HostID]bool),
	}
	h.monitor = sim.NewHeartbeatMonitor(h, a.Thb)
	a.hosts[id] = h
	return h.monitor
}

// Install implements Protocol.
func (a *ReliableAllReport) Install(nw *sim.Network) error { return install(a, nw) }

// Result implements Protocol: q(M) over distinct origins received at h_q.
func (a *ReliableAllReport) Result() (float64, bool) {
	if a.hosts == nil {
		return 0, false
	}
	hq := a.hosts[a.Query.Hq]
	if hq == nil || !hq.started {
		return 0, false
	}
	return agg.Exact(a.Query.Kind, hq.collected), true
}

// Reports returns the number of distinct origins collected at h_q.
func (a *ReliableAllReport) Reports() int { return len(a.hosts[a.Query.Hq].collected) }

const rarTagCheck = 5

type rarHost struct {
	a       *ReliableAllReport
	monitor *sim.HeartbeatMonitor
	isHq    bool
	started bool
	active  bool
	parent  graph.HostID
	// candidates are neighbors the broadcast arrived from — all of them
	// sit closer to h_q on some path and are re-parenting targets.
	candidates []graph.HostID
	// buffer holds one report per origin this host originated or relayed,
	// for re-sending after a re-parent.
	buffer []arReport
	// relayed marks origins already forwarded once; without it, a
	// re-parent cycle (A's backup is B while B's backup is A) would
	// bounce the same report until the deadline.
	relayed map[graph.HostID]bool
	// seen dedups origins at h_q.
	seen      map[graph.HostID]bool
	collected []int64 // h_q only
}

func (h *rarHost) Start(ctx *sim.Context) {
	if !h.isHq {
		return
	}
	h.started = true
	h.active = true
	h.seen[ctx.Self()] = true
	h.collected = append(h.collected, ctx.Value())
	ctx.SendAll(arBroadcast{})
}

func (h *rarHost) Receive(ctx *sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case arBroadcast:
		if h.isHq {
			return
		}
		if !h.active {
			if ctx.Now() >= sim.Time(2*h.a.Query.DHat) {
				return
			}
			h.active = true
			h.parent = msg.From
			h.candidates = append(h.candidates, msg.From)
			ctx.SendAllExcept(msg.From, arBroadcast{})
			report := arReport{Origin: ctx.Self(), Value: ctx.Value()}
			h.buffer = append(h.buffer, report)
			ctx.Send(h.parent, report)
			ctx.SetTimer(ctx.Now()+h.a.Thb, rarTagCheck)
			return
		}
		// Additional broadcast copies reveal alternate parents.
		if msg.From != h.parent && !slices.Contains(h.candidates, msg.From) {
			h.candidates = append(h.candidates, msg.From)
		}
	case arReport:
		if h.isHq {
			if !h.seen[m.Origin] {
				h.seen[m.Origin] = true
				h.collected = append(h.collected, m.Value)
			}
			return
		}
		if h.active && h.parent != graph.None && !h.relayed[m.Origin] {
			h.relayed[m.Origin] = true
			h.buffer = append(h.buffer, m)
			ctx.Send(h.parent, m)
		}
	}
}

func (h *rarHost) Timer(ctx *sim.Context, tag int) {
	if tag != rarTagCheck || !h.active || h.isHq {
		return
	}
	if ctx.Now() >= sim.Time(2*h.a.Query.DHat) {
		return
	}
	if h.parent != graph.None && !h.monitor.NeighborAlive(ctx.Now(), h.parent) {
		h.reparent(ctx)
	}
	ctx.SetTimer(ctx.Now()+h.a.Thb, rarTagCheck)
}

// reparent picks the first unsuspected candidate (or any unsuspected
// neighbor as a last resort) and replays the buffered reports to it.
func (h *rarHost) reparent(ctx *sim.Context) {
	old := h.parent
	h.parent = graph.None
	for _, c := range h.candidates {
		if c != old && h.monitor.NeighborAlive(ctx.Now(), c) {
			h.parent = c
			break
		}
	}
	if h.parent == graph.None {
		for _, n := range ctx.Neighbors() {
			if n != old && h.monitor.NeighborAlive(ctx.Now(), n) {
				h.parent = n
				break
			}
		}
	}
	if h.parent == graph.None {
		return // isolated: nothing to do
	}
	for _, r := range h.buffer {
		ctx.Send(h.parent, r)
	}
}
