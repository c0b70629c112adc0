package protocol

import (
	"fmt"
	"slices"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// DAG is the DIRECTEDACYCLICGRAPH best-effort baseline (§4.4, [7,22]):
// like SPANNINGTREE, but each host keeps up to k parents — every neighbor
// whose copy of the query arrived from a strictly smaller depth — and
// sends its partial aggregate to all of them. Because a partial then
// reaches h_q along multiple paths, the partials must be duplicate-
// insensitive; following the paper's evaluation ("our implementation of
// DIRECTEDACYCLICGRAPH uses the distributed count and sum operators",
// §6), DAG carries agg.Partial (FM sketches for count/sum/avg, scalars
// for min/max).
type DAG struct {
	Query Query
	// K is the maximum number of parents per host (the paper evaluates
	// k = 2 and k = 3).
	K int

	hosts []*dagHost
}

// NewDAG returns an uninstalled DAG instance with k parents per host.
func NewDAG(q Query, k int) *DAG { return &DAG{Query: q, K: k} }

// Name implements Protocol.
func (d *DAG) Name() string { return fmt.Sprintf("dag(k=%d)", d.K) }

// Deadline implements Protocol.
func (d *DAG) Deadline() sim.Time { return d.Query.Deadline() }

// Init implements Protocol.
func (d *DAG) Init(g *graph.Graph) error {
	if d.K < 1 {
		return fmt.Errorf("protocol: DAG needs k ≥ 1, got %d", d.K)
	}
	d.hosts = make([]*dagHost, g.Len())
	return d.Query.Validate(g)
}

// NewHost implements Protocol.
func (d *DAG) NewHost(h graph.HostID) sim.Handler {
	d.hosts[h] = &dagHost{d: d, isHq: h == d.Query.Hq}
	return d.hosts[h]
}

// Install implements Protocol.
func (d *DAG) Install(nw *sim.Network) error { return install(d, nw) }

// Result implements Protocol.
func (d *DAG) Result() (float64, bool) {
	hq := d.hosts[d.Query.Hq]
	if hq == nil || !hq.active {
		return 0, false
	}
	return hq.partial.Result(), true
}

type dagBroadcast struct {
	Level int
}

type dagReport struct {
	A *agg.Partial
}

const dagTagReport = 2

type dagHost struct {
	d       *DAG
	isHq    bool
	active  bool
	level   int
	parents []graph.HostID
	partial agg.Partial
}

func (h *dagHost) Start(ctx *sim.Context) {
	if !h.isHq {
		return
	}
	h.active = true
	h.level = 0
	h.partial.Init(h.d.Query.Kind, ctx.Value(), h.d.Query.Params, ctx.Rand())
	ctx.SendAll(dagBroadcast{Level: 1})
}

func (h *dagHost) Receive(ctx *sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case dagBroadcast:
		h.onBroadcast(ctx, msg.From, m)
	case dagReport:
		// A partial off the wire that the query could not have built
		// would panic Combine: drop it.
		if h.active && agg.Conforms(m.A, h.d.Query.Kind, h.d.Query.Params) {
			h.partial.Combine(m.A)
		}
	}
}

func (h *dagHost) onBroadcast(ctx *sim.Context, from graph.HostID, m dagBroadcast) {
	if h.isHq {
		return
	}
	if !h.active {
		if ctx.Now() >= sim.Time(2*h.d.Query.DHat) {
			return
		}
		h.active = true
		h.level = m.Level
		h.parents = append(h.parents, from)
		h.partial.Init(h.d.Query.Kind, ctx.Value(), h.d.Query.Params, ctx.Rand())
		ctx.SendAllExcept(from, dagBroadcast{Level: h.level + 1})
		t := sim.Time(2*h.d.Query.DHat - h.level)
		if t < ctx.Now() {
			t = ctx.Now()
		}
		ctx.SetTimer(t, dagTagReport)
		return
	}
	// An additional parent candidate: the sender sits at depth m.Level−1;
	// accept it if that is strictly above us and we have parent budget.
	if m.Level-1 < h.level && len(h.parents) < h.d.K && !slices.Contains(h.parents, from) {
		h.parents = append(h.parents, from)
	}
}

func (h *dagHost) Timer(ctx *sim.Context, tag int) {
	if tag != dagTagReport || h.isHq || !h.active {
		return
	}
	for _, p := range h.parents {
		ctx.Send(p, dagReport{A: h.partial.Clone()})
	}
}
