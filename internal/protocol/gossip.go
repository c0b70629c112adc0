package protocol

import (
	"fmt"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// Gossip implements the epidemic baseline the paper contrasts against in
// §2.2 [9,14,19,37]: Kempe–Dobra–Gehrke push-sum. Every host maintains a
// (sum, weight) pair; in each round it splits the pair in half and sends
// one half to a uniformly random neighbor, keeping the other. The ratio
// sum/weight at every host converges to the average of the initial
// values; avg · count recovers sum, and a parallel counting instance
// (one host seeded with weight mass) estimates count.
//
// The point of including it: gossip offers *eventual consistency* — under
// churn mass is lost with failed hosts and the guarantee degrades to
// "correct once the network stabilizes" — not Single-Site Validity. The
// tests and benches use it to show where the paper's semantics differ
// from the epidemic alternative (§2.2), and what gossip costs to reach
// comparable accuracy.
//
// Supported kinds: Avg (native), Count and Sum (via the weight trick).
// Min/Max degenerate to flooding and are better served by WILDFIRE.
type Gossip struct {
	Query Query
	// Rounds is the number of gossip rounds (each round = one tick; the
	// classic analysis needs O(log n + log 1/ε) rounds on good expanders).
	Rounds int

	hosts []*gsHost
}

// NewGossip returns an uninstalled push-sum instance.
func NewGossip(q Query, rounds int) *Gossip { return &Gossip{Query: q, Rounds: rounds} }

// Name implements Protocol.
func (g *Gossip) Name() string { return "gossip" }

// Deadline implements Protocol.
func (g *Gossip) Deadline() sim.Time { return sim.Time(g.Rounds + 1) }

// Init implements Protocol.
func (g *Gossip) Init(gr *graph.Graph) error {
	switch g.Query.Kind {
	case agg.Avg, agg.Count, agg.Sum:
	default:
		return fmt.Errorf("protocol: gossip supports avg/count/sum, not %v", g.Query.Kind)
	}
	if g.Rounds < 1 {
		return fmt.Errorf("protocol: gossip needs ≥ 1 round, got %d", g.Rounds)
	}
	g.hosts = make([]*gsHost, gr.Len())
	return g.Query.Validate(gr)
}

// NewHost implements Protocol.
func (g *Gossip) NewHost(h graph.HostID) sim.Handler {
	g.hosts[h] = &gsHost{g: g, isHq: h == g.Query.Hq}
	return g.hosts[h]
}

// Install implements Protocol.
func (g *Gossip) Install(nw *sim.Network) error { return install(g, nw) }

// Result implements Protocol. For Avg it is sum/weight at h_q; for Count,
// weight mass is seeded only at h_q so every host's value/weight ratio
// estimates n (we read h_q's); for Sum, the same with values.
func (g *Gossip) Result() (float64, bool) {
	if g.hosts == nil {
		return 0, false
	}
	return g.HostEstimate(g.Query.Hq)
}

// HostEstimate returns host h's current local estimate (gossip's defining
// property is that *every* host converges to the answer).
func (g *Gossip) HostEstimate(h graph.HostID) (float64, bool) {
	gh := g.hosts[h]
	if gh == nil || !gh.started || gh.weight == 0 {
		return 0, false
	}
	return gh.sum / gh.weight, true
}

// gsPair is one push-sum share.
type gsPair struct {
	Sum    float64
	Weight float64
}

const gsTagRound = 4

type gsHost struct {
	g       *Gossip
	isHq    bool
	started bool
	sum     float64
	weight  float64
}

func (h *gsHost) Start(ctx *sim.Context) {
	h.started = true
	switch h.g.Query.Kind {
	case agg.Avg:
		// Classic push-sum: sum = value, weight = 1 everywhere.
		h.sum, h.weight = float64(ctx.Value()), 1
	case agg.Count:
		// sum = 1 everywhere, weight seeded at h_q only: sum/weight → n.
		h.sum = 1
		if h.isHq {
			h.weight = 1
		}
	case agg.Sum:
		// sum = value everywhere, weight at h_q only: sum/weight → Σv.
		h.sum = float64(ctx.Value())
		if h.isHq {
			h.weight = 1
		}
	}
	ctx.SetTimer(1, gsTagRound)
}

func (h *gsHost) Receive(ctx *sim.Context, msg sim.Message) {
	if p, ok := msg.Payload.(gsPair); ok {
		h.sum += p.Sum
		h.weight += p.Weight
	}
}

func (h *gsHost) Timer(ctx *sim.Context, tag int) {
	if tag != gsTagRound {
		return
	}
	if ctx.Now() > sim.Time(h.g.Rounds) {
		return
	}
	// Push half our mass to one uniformly random neighbor.
	ns := ctx.Neighbors()
	if len(ns) > 0 && (h.sum != 0 || h.weight != 0) {
		target := ns[ctx.Rand().Intn(len(ns))]
		half := gsPair{Sum: h.sum / 2, Weight: h.weight / 2}
		h.sum -= half.Sum
		h.weight -= half.Weight
		ctx.Send(target, half)
	}
	ctx.SetTimer(ctx.Now()+1, gsTagRound)
}
