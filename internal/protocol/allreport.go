package protocol

import (
	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// AllReport is the direct-delivery algorithm of Fig. 2 (Theorem 4.3's
// constructive proof that Single-Site Validity is achievable, and the
// "Direct Delivery" baseline of Yao and Gehrke studied in §4.4): h_q
// floods the query, and each host that receives it sends its attribute
// value back to h_q, which aggregates the collected set M at T = 2D̂δ.
//
// The paper's abstract model says a host "sends its attribute value to
// h_q" and leaves routing implicit. On the simulator messages travel only
// along edges of G, so reports are relayed hop-by-hop along the reverse
// broadcast path (each host forwards toward the neighbor its copy of the
// query arrived from). This realizes the high per-hop communication cost
// §4.4 attributes to direct delivery. One honest deviation: if a reverse-
// path relay fails after the broadcast passed, the report is lost even
// though the origin may have another stable path — the abstract model
// assumes routing finds the stable path, which needs a routing substrate
// the paper does not specify. Tests pin validity in the failure-free case
// and bound the loss under churn.
type AllReport struct {
	Query Query

	hosts []*arHost
}

// NewAllReport returns an uninstalled ALLREPORT instance.
func NewAllReport(q Query) *AllReport { return &AllReport{Query: q} }

// Name implements Protocol.
func (a *AllReport) Name() string { return "allreport" }

// Deadline implements Protocol.
func (a *AllReport) Deadline() sim.Time { return a.Query.Deadline() }

// Init implements Protocol.
func (a *AllReport) Init(g *graph.Graph) error {
	a.hosts = make([]*arHost, g.Len())
	return a.Query.Validate(g)
}

// NewHost implements Protocol.
func (a *AllReport) NewHost(h graph.HostID) sim.Handler {
	a.hosts[h] = &arHost{a: a, isHq: h == a.Query.Hq, parent: graph.None}
	return a.hosts[h]
}

// Install implements Protocol.
func (a *AllReport) Install(nw *sim.Network) error { return install(a, nw) }

// Result implements Protocol: q(M) over the values received at h_q
// (including h_q's own).
func (a *AllReport) Result() (float64, bool) {
	hq := a.hosts[a.Query.Hq]
	if hq == nil || !hq.started {
		return 0, false
	}
	return agg.Exact(a.Query.Kind, hq.collected), true
}

type arBroadcast struct{}

// arReport carries one host's attribute value toward h_q.
type arReport struct {
	Origin graph.HostID
	Value  int64
}

type arHost struct {
	a         *AllReport
	isHq      bool
	started   bool
	active    bool
	parent    graph.HostID
	collected []int64 // h_q only
}

func (h *arHost) Start(ctx *sim.Context) {
	if !h.isHq {
		return
	}
	h.started = true
	h.active = true
	h.collected = append(h.collected, ctx.Value())
	ctx.SendAll(arBroadcast{})
}

func (h *arHost) Receive(ctx *sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case arBroadcast:
		if h.active {
			return
		}
		if ctx.Now() >= sim.Time(2*h.a.Query.DHat) {
			return
		}
		h.active = true
		h.parent = msg.From
		ctx.SendAllExcept(msg.From, arBroadcast{})
		ctx.Send(h.parent, arReport{Origin: ctx.Self(), Value: ctx.Value()})
	case arReport:
		if h.isHq {
			h.collected = append(h.collected, m.Value)
			return
		}
		if h.active && h.parent != graph.None {
			ctx.Send(h.parent, m)
		}
	}
}

func (h *arHost) Timer(ctx *sim.Context, tag int) {}
