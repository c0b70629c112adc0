package protocol

import (
	"fmt"
	"slices"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// SpanningTree is the TAG-style best-effort baseline (§4.4, [22,38,40]):
// the tree protocol with one parent per host — the neighbor its first copy
// of the query arrived from — and exact partial aggregates (ExactPartial).
//
// The protocol is communication-optimal (|E| broadcast + |H| convergecast
// messages) but forsakes validity: if a host fails before its report is
// sent, the values of its entire subtree are silently lost (Example 1.1,
// Theorem 4.4).
type SpanningTree struct {
	tree[ExactPartial, exactOps]
}

// NewSpanningTree returns an uninstalled SPANNINGTREE instance.
func NewSpanningTree(q Query) *SpanningTree {
	return &SpanningTree{tree[ExactPartial, exactOps]{Query: q, k: 1}}
}

// Name implements Protocol.
func (s *SpanningTree) Name() string { return "spanningtree" }

// Parent returns the tree parent chosen by host h (None for h_q or hosts
// the broadcast never reached); tests and the DAG comparison use it.
func (s *SpanningTree) Parent(h graph.HostID) graph.HostID {
	if ps := s.hosts[h].parents; len(ps) > 0 {
		return ps[0]
	}
	return graph.None
}

// DAG is the DIRECTEDACYCLICGRAPH best-effort baseline (§4.4, [7,22]): the
// tree protocol with up to K parents per host. Because a partial then
// reaches h_q along several paths, the partials must be duplicate-
// insensitive; following the paper's evaluation ("our implementation of
// DIRECTEDACYCLICGRAPH uses the distributed count and sum operators",
// §6), DAG carries agg.Partial (FM sketches for count/sum/avg, scalars
// for min/max), its coins tossed at activation.
type DAG struct {
	tree[agg.Partial, sketchOps]
}

// NewDAG returns an uninstalled DAG instance with k parents per host (the
// paper evaluates k = 2 and k = 3).
func NewDAG(q Query, k int) *DAG { return &DAG{tree[agg.Partial, sketchOps]{Query: q, k: k}} }

// Name implements Protocol.
func (d *DAG) Name() string { return fmt.Sprintf("dag(k=%d)", d.k) }

// tree is SPANNINGTREE and DAG (§4.4). Broadcast floods the query from
// h_q; a host keeps up to k parents: the sender of its first copy, plus
// later senders from a strictly smaller depth. Convergecast runs on a
// level schedule: a host at depth l reports its partial to every parent
// at time (2D̂ − l)δ, by which time its children (depth l+1, scheduled at
// (2D̂ − l − 1)δ) have reported. The partial type P, and the operations O
// on it, are all that tell the two baselines apart.
type tree[P any, O treeOps[P]] struct {
	Query Query

	k     int // the maximum number of parents per host
	hosts []treeHost[P, O]
}

// treeOps is what the tree protocol does with a partial of type P.
type treeOps[P any] interface {
	// init makes p the partial of a host holding only its own value.
	init(p *P, q *Query, ctx *sim.Context)
	// fold combines a child's report into p.
	fold(p *P, q *Query, in *P)
	// clone copies p into a report.
	clone(p *P) *P
	// result is the aggregate p declares.
	result(p *P, q *Query) float64
}

// exactOps are SPANNINGTREE's: exact and duplicate-sensitive, no coins.
type exactOps struct{}

func (exactOps) init(p *ExactPartial, _ *Query, ctx *sim.Context) { *p = *NewExactPartial(ctx.Value()) }
func (exactOps) fold(p *ExactPartial, _ *Query, in *ExactPartial) { p.Merge(in) }
func (exactOps) clone(p *ExactPartial) *ExactPartial              { return p.Clone() }
func (exactOps) result(p *ExactPartial, q *Query) float64         { return p.Result(q.Kind) }

// sketchOps are DAG's: duplicate-insensitive, the FM coins tossed at init.
type sketchOps struct{}

func (sketchOps) init(p *agg.Partial, q *Query, ctx *sim.Context) {
	p.Init(q.Kind, ctx.Value(), q.Params, ctx.Rand())
}

// fold drops a partial off the wire that the query could not have built:
// it would panic Combine.
func (sketchOps) fold(p *agg.Partial, q *Query, in *agg.Partial) {
	if agg.Conforms(in, q.Kind, q.Params) {
		p.Combine(in)
	}
}
func (sketchOps) clone(p *agg.Partial) *agg.Partial       { return p.Clone() }
func (sketchOps) result(p *agg.Partial, _ *Query) float64 { return p.Result() }

// Init implements Protocol.
func (t *tree[P, O]) Init(g *graph.Graph) error {
	if t.k < 1 {
		return fmt.Errorf("protocol: DAG needs k ≥ 1, got %d", t.k)
	}
	// Every host's parent list is carved from one slab; none can hold
	// more parents than it has neighbors.
	w := min(t.k, g.MaxDegree())
	slab := make([]graph.HostID, g.Len()*w)
	t.hosts = make([]treeHost[P, O], g.Len())
	for h := range t.hosts {
		t.hosts[h].parents = slab[h*w : h*w : (h+1)*w]
	}
	return t.Query.Validate(g)
}

// NewHost implements Protocol.
func (t *tree[P, O]) NewHost(h graph.HostID) sim.Handler {
	t.hosts[h] = treeHost[P, O]{t: t, parents: t.hosts[h].parents[:0]}
	return &t.hosts[h]
}

// Install implements Protocol.
func (t *tree[P, O]) Install(nw *sim.Network) error { return install(t, nw) }

// Deadline implements Protocol.
func (t *tree[P, O]) Deadline() sim.Time { return t.Query.Deadline() }

// Result implements Protocol: h_q's partial at the deadline.
func (t *tree[P, O]) Result() (float64, bool) {
	hq := &t.hosts[t.Query.Hq]
	if !hq.active {
		return 0, false
	}
	var ops O
	return ops.result(&hq.partial, &t.Query), true
}

// treeBroadcast carries the query down the tree; Level is the receiver's
// prospective depth.
type treeBroadcast struct {
	Level int
}

// treeReport carries a subtree's partial up one edge.
type treeReport[P any] struct {
	A *P
}

type treeHost[P any, O treeOps[P]] struct {
	t       *tree[P, O]
	active  bool
	level   int
	parents []graph.HostID // at most k; the first sent the first copy
	partial P
}

func (h *treeHost[P, O]) Start(ctx *sim.Context) {
	if ctx.Self() != h.t.Query.Hq {
		return
	}
	h.activate(ctx, 0)
	ctx.SendAll(treeBroadcast{Level: 1})
}

func (h *treeHost[P, O]) activate(ctx *sim.Context, level int) {
	var ops O
	h.active = true
	h.level = level
	ops.init(&h.partial, &h.t.Query, ctx)
}

func (h *treeHost[P, O]) Receive(ctx *sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case treeBroadcast:
		h.onBroadcast(ctx, msg.From, m.Level)
	case treeReport[P]:
		if h.active {
			var ops O
			ops.fold(&h.partial, &h.t.Query, m.A)
		}
	}
}

func (h *treeHost[P, O]) onBroadcast(ctx *sim.Context, from graph.HostID, level int) {
	if h.active {
		// A later copy: its sender sits at depth level−1; keep it as a
		// parent if that is strictly above us and there is parent budget.
		if level-1 < h.level && len(h.parents) < cap(h.parents) && !slices.Contains(h.parents, from) {
			h.parents = append(h.parents, from)
		}
		return
	}
	// Fig. 3 guard: activate only if t < 2D̂δ.
	dhat := h.t.Query.DHat
	if ctx.Now() >= sim.Time(2*dhat) {
		return
	}
	h.parents = append(h.parents, from)
	h.activate(ctx, level)
	ctx.SendAllExcept(from, treeBroadcast{Level: level + 1})
	// Schedule the subtree report: by 2D̂−l all children have reported. A
	// host activated at or past its own tick reports at once.
	ctx.SetTimer(max(sim.Time(2*dhat-level), ctx.Now()), 0)
}

// Timer is the report tick: the partial goes to every parent. If a parent
// has already failed, the network drops the report silently — that is the
// protocols' whole failure mode.
func (h *treeHost[P, O]) Timer(ctx *sim.Context, _ int) {
	var ops O
	for _, p := range h.parents {
		ctx.Send(p, treeReport[P]{A: ops.clone(&h.partial)})
	}
}
