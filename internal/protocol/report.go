package protocol

import (
	"fmt"
	"math"

	"validity/internal/graph"
	"validity/internal/sim"
)

// AllReport is the direct-delivery algorithm of Fig. 2 (Theorem 4.3's
// constructive proof that Single-Site Validity is achievable, and the
// "Direct Delivery" baseline of Yao and Gehrke studied in §4.4): every
// host the query reaches reports its attribute value, and h_q declares
// q(M) over the collected set M at T = 2D̂δ.
type AllReport struct{ report }

// NewAllReport returns an uninstalled ALLREPORT instance.
func NewAllReport(q Query) *AllReport { return &AllReport{report{Query: q}} }

// Name implements Protocol.
func (a *AllReport) Name() string { return "allreport" }

// RandomizedReport implements the §4.3 sampling estimator of network size
// |H|: h_q floods the query carrying a report probability p; each host
// that receives it, h_q included, reports with probability p; at
// T = 2D̂δ the estimate is |M|/p. With p ≥ (4/(ε²·n))·ln(2/ζ) the result
// satisfies Approximate Single-Site Validity within (1±ε) with probability
// at least 1−ζ, using roughly (1−p)|H| fewer report messages than
// ALLREPORT.
type RandomizedReport struct{ report }

// NewRandomizedReport returns an instance with an explicit p.
func NewRandomizedReport(q Query, p float64) *RandomizedReport {
	return &RandomizedReport{report{Query: q, p: p, sample: true}}
}

// Name implements Protocol.
func (r *RandomizedReport) Name() string { return "randomizedreport" }

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

// report is ALLREPORT and RANDOMIZEDREPORT: h_q floods the query, and each
// host it reaches sends its value back to h_q.
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
type report struct {
	Query Query

	// sample makes every reached host toss one coin and report only below
	// p (RANDOMIZEDREPORT); without it every host reports and tosses none.
	sample bool
	p      float64

	hosts []reportHost
}

// Init implements Protocol.
func (r *report) Init(g *graph.Graph) error {
	if r.sample && (r.p <= 0 || r.p > 1) {
		return fmt.Errorf("protocol: report probability %v outside (0,1]", r.p)
	}
	r.hosts = make([]reportHost, g.Len())
	return r.Query.Validate(g)
}

// NewHost implements Protocol.
func (r *report) NewHost(h graph.HostID) sim.Handler {
	r.hosts[h] = reportHost{r: r, parent: graph.None}
	return &r.hosts[h]
}

// Install implements Protocol.
func (r *report) Install(nw *sim.Network) error { return install(r, nw) }

// Deadline implements Protocol.
func (r *report) Deadline() sim.Time { return r.Query.Deadline() }

// Result implements Protocol: q(M) over the values received at h_q
// (including h_q's own), or the size estimate |M|/p when sampled.
func (r *report) Result() (float64, bool) {
	hq := &r.hosts[r.Query.Hq]
	if !hq.active {
		return 0, false
	}
	if r.sample {
		return float64(hq.got.Count) / r.p, true
	}
	return hq.got.Result(r.Query.Kind), true
}

type reportBroadcast struct{}

// reportValue carries one host's report toward h_q: its attribute value,
// or 0 when the query samples and h_q only counts reports.
type reportValue struct {
	Value int64
}

type reportHost struct {
	r      *report
	active bool
	parent graph.HostID
	got    ExactPartial // h_q only: the reports folded in
}

// report tosses the host's report coin, if the query samples, and returns
// what its report carries.
func (h *reportHost) report(ctx *sim.Context) (int64, bool) {
	if !h.r.sample {
		return ctx.Value(), true
	}
	return 0, ctx.Rand().Float64() < h.r.p
}

func (h *reportHost) Start(ctx *sim.Context) {
	if ctx.Self() != h.r.Query.Hq {
		return
	}
	h.active = true
	if v, ok := h.report(ctx); ok {
		h.got.Merge(NewExactPartial(v))
	}
	ctx.SendAll(reportBroadcast{})
}

func (h *reportHost) Receive(ctx *sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case reportBroadcast:
		if h.active || ctx.Now() >= sim.Time(2*h.r.Query.DHat) {
			return
		}
		h.active = true
		h.parent = msg.From
		ctx.SendAllExcept(msg.From, reportBroadcast{})
		if v, ok := h.report(ctx); ok {
			ctx.Send(h.parent, reportValue{Value: v})
		}
	case reportValue:
		if ctx.Self() == h.r.Query.Hq {
			h.got.Merge(NewExactPartial(m.Value))
		} else if h.active {
			ctx.Send(h.parent, msg.Payload)
		}
	}
}

func (h *reportHost) Timer(ctx *sim.Context, tag int) {}
