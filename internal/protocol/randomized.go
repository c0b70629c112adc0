package protocol

import (
	"fmt"
	"math"

	"validity/internal/graph"
	"validity/internal/sim"
)

// RandomizedReport implements the §4.3 sampling estimator of network size
// |H|: h_q floods the query carrying a report probability p; each host
// that receives it reports a 1 back to h_q with probability p; at
// T = 2D̂δ the estimate is |M|/p. With p ≥ (4/(ε²·n))·ln(2/ζ) the result
// satisfies Approximate Single-Site Validity within (1±ε) with probability
// at least 1−ζ, using roughly (1−p)|H| fewer report messages than
// ALLREPORT.
type RandomizedReport struct {
	Query Query
	// P is the report probability flooded with the query.
	P float64

	hosts []*rrHost
}

// NewRandomizedReport returns an instance with an explicit p.
func NewRandomizedReport(q Query, p float64) *RandomizedReport {
	return &RandomizedReport{Query: q, P: p}
}

// ReportProbability computes the §4.3 bound p = (4/(ε²·n))·ln(2/ζ),
// clamped to (0, 1], for a caller-supplied (over)estimate n of the
// network size.
func ReportProbability(eps, zeta float64, n int) float64 {
	if eps <= 0 || eps >= 1 || zeta <= 0 || zeta >= 1 || n <= 0 {
		return 1
	}
	p := 4 / (eps * eps * float64(n)) * math.Log(2/zeta)
	if p > 1 {
		return 1
	}
	return p
}

// Name implements Protocol.
func (r *RandomizedReport) Name() string { return "randomizedreport" }

// Deadline implements Protocol.
func (r *RandomizedReport) Deadline() sim.Time { return r.Query.Deadline() }

// Init implements Protocol.
func (r *RandomizedReport) Init(g *graph.Graph) error {
	if r.P <= 0 || r.P > 1 {
		return fmt.Errorf("protocol: report probability %v outside (0,1]", r.P)
	}
	r.hosts = make([]*rrHost, g.Len())
	return r.Query.Validate(g)
}

// NewHost implements Protocol.
func (r *RandomizedReport) NewHost(h graph.HostID) sim.Handler {
	r.hosts[h] = &rrHost{r: r, isHq: h == r.Query.Hq, parent: graph.None}
	return r.hosts[h]
}

// Install implements Protocol.
func (r *RandomizedReport) Install(nw *sim.Network) error { return install(r, nw) }

// Result implements Protocol: the size estimate |M|/p.
func (r *RandomizedReport) Result() (float64, bool) {
	hq := r.hosts[r.Query.Hq]
	if hq == nil || !hq.started {
		return 0, false
	}
	return float64(hq.reports) / r.P, true
}

type rrBroadcast struct{}

type rrReport struct{}

type rrHost struct {
	r       *RandomizedReport
	isHq    bool
	started bool
	active  bool
	parent  graph.HostID
	reports int // h_q only
}

func (h *rrHost) Start(ctx *sim.Context) {
	if !h.isHq {
		return
	}
	h.started = true
	h.active = true
	if ctx.Rand().Float64() < h.r.P {
		h.reports++ // h_q samples itself like any other host
	}
	ctx.SendAll(rrBroadcast{})
}

func (h *rrHost) Receive(ctx *sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case rrBroadcast:
		if h.active {
			return
		}
		if ctx.Now() >= sim.Time(2*h.r.Query.DHat) {
			return
		}
		h.active = true
		h.parent = msg.From
		ctx.SendAllExcept(msg.From, rrBroadcast{})
		if ctx.Rand().Float64() < h.r.P {
			ctx.Send(h.parent, rrReport{})
		}
	case rrReport:
		if h.isHq {
			h.reports++
			return
		}
		if h.active && h.parent != graph.None {
			ctx.Send(h.parent, m)
		}
	}
}

func (h *rrHost) Timer(ctx *sim.Context, tag int) {}
