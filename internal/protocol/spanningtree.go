package protocol

import (
	"validity/internal/graph"
	"validity/internal/sim"
)

// SpanningTree is the TAG-style best-effort baseline (§4.4, [22,38,40]).
// Broadcast builds a spanning tree rooted at h_q: a host's parent is the
// neighbor its first copy of the query arrived from. Convergecast runs on
// a level schedule: a host at depth l sends its exact partial aggregate to
// its parent at time (2D̂ − l)δ, by which time all of its children (depth
// l+1, scheduled at (2D̂ − l − 1)δ) have reported.
//
// The protocol is communication-optimal (|E| broadcast + |H| convergecast
// messages) but forsakes validity: if a host fails before its report is
// sent, the values of its entire subtree are silently lost (Example 1.1,
// Theorem 4.4).
type SpanningTree struct {
	Query Query

	hosts []*stHost
}

// NewSpanningTree returns an uninstalled SPANNINGTREE instance.
func NewSpanningTree(q Query) *SpanningTree { return &SpanningTree{Query: q} }

// Name implements Protocol.
func (s *SpanningTree) Name() string { return "spanningtree" }

// Deadline implements Protocol.
func (s *SpanningTree) Deadline() sim.Time { return s.Query.Deadline() }

// Init implements Protocol.
func (s *SpanningTree) Init(g *graph.Graph) error {
	s.hosts = make([]*stHost, g.Len())
	return s.Query.Validate(g)
}

// NewHost implements Protocol.
func (s *SpanningTree) NewHost(h graph.HostID) sim.Handler {
	s.hosts[h] = &stHost{s: s, isHq: h == s.Query.Hq, parent: graph.None}
	return s.hosts[h]
}

// Install implements Protocol.
func (s *SpanningTree) Install(nw *sim.Network) error { return install(s, nw) }

// Result implements Protocol.
func (s *SpanningTree) Result() (float64, bool) {
	hq := s.hosts[s.Query.Hq]
	if hq == nil || !hq.active {
		return 0, false
	}
	return hq.partial.Result(s.Query.Kind), true
}

// Parent returns the tree parent chosen by host h (None for h_q or hosts
// the broadcast never reached); tests and the DAG comparison use it.
func (s *SpanningTree) Parent(h graph.HostID) graph.HostID { return s.hosts[h].parent }

// stBroadcast carries the query down the tree; Level is the receiver's
// prospective depth.
type stBroadcast struct {
	Level int
}

// stReport carries a subtree's exact partial aggregate up one edge.
type stReport struct {
	A *ExactPartial
}

const stTagReport = 1

type stHost struct {
	s       *SpanningTree
	isHq    bool
	active  bool
	parent  graph.HostID
	level   int
	partial *ExactPartial
}

func (h *stHost) Start(ctx *sim.Context) {
	if !h.isHq {
		return
	}
	h.active = true
	h.level = 0
	h.partial = NewExactPartial(ctx.Value())
	ctx.SendAll(stBroadcast{Level: 1})
}

func (h *stHost) Receive(ctx *sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case stBroadcast:
		if h.active {
			return // keep the first parent
		}
		if ctx.Now() >= sim.Time(2*h.s.Query.DHat) {
			return
		}
		h.active = true
		h.parent = msg.From
		h.level = m.Level
		h.partial = NewExactPartial(ctx.Value())
		ctx.SendAllExcept(msg.From, stBroadcast{Level: h.level + 1})
		// Schedule the subtree report: by 2D̂−l all children have reported.
		t := sim.Time(2*h.s.Query.DHat - h.level)
		if t < ctx.Now() {
			t = ctx.Now()
		}
		ctx.SetTimer(t, stTagReport)
	case stReport:
		if !h.active {
			return
		}
		h.partial.Merge(m.A)
	}
}

func (h *stHost) Timer(ctx *sim.Context, tag int) {
	if tag != stTagReport || h.isHq || !h.active {
		return
	}
	// If the parent has already failed, the message is silently dropped by
	// the network — that is the protocol's whole failure mode.
	ctx.Send(h.parent, stReport{A: h.partial.Clone()})
}
