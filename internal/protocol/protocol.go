// Package protocol implements the paper's query-processing protocols as
// per-host state machines over the internal/sim substrate:
//
//   - WILDFIRE (§5.1, Figs. 3–4): the paper's contribution. Broadcast
//     floods the query with no edge-subset construction; convergecast
//     refloods a host's partial aggregate whenever it changes. With
//     duplicate-insensitive combine functions (min/max natively, FM
//     sketches for count/sum/avg) the result at h_q satisfies Single-Site
//     Validity (Theorems 5.1 and 5.3).
//   - SPANNINGTREE and DIRECTEDACYCLICGRAPH (§4.4), the best-effort
//     baselines, are one tree protocol (tree.go). Broadcast builds the
//     tree: a host's parents are the sender of its first copy of the
//     query plus, up to k, later senders from a strictly smaller depth;
//     convergecast sends each host's partial to its parents on a level
//     schedule. SPANNINGTREE is k = 1 over exact partials, so a single
//     interior failure loses an entire subtree; DAG keeps k parents over
//     duplicate-insensitive agg.Partial, so losing one parent need not.
//   - ALLREPORT (§4.1, Fig. 2) and RANDOMIZEDREPORT (§4.3) are one report
//     protocol (report.go): every host the query reaches routes its
//     attribute value to h_q along the reverse broadcast path; under
//     RANDOMIZEDREPORT each reports only with probability p, and h_q
//     estimates network size within (1±ε) with probability 1−ζ.
//
// Every protocol implements the Protocol interface: Install handlers on a
// sim.Network, Run the network until Deadline, then read Result. The live
// engine skips Install and mints handlers one host at a time (Init, then
// NewHost for the hosts a process serves). It runs WILDFIRE, so WILDFIRE's
// messages are the only ones with a wire codec (wirecodec.go); the other
// protocols run on sim.Network, which passes Go values.
package protocol

import (
	"fmt"
	"math"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// Query describes one aggregate query issued at Hq at virtual time 0.
type Query struct {
	// Kind is the aggregate to compute.
	Kind agg.Kind
	// Hq is the querying host.
	Hq graph.HostID
	// DHat is the overestimate D̂ of the stable diameter; every protocol
	// terminates at time 2·D̂·δ (δ = 1 tick).
	DHat int
	// Params sizes the FM sketches for count/sum/avg queries.
	Params agg.Params
}

// Deadline returns the query's termination time T = 2·D̂·δ.
func (q Query) Deadline() sim.Time { return sim.Time(2 * q.DHat) }

// Validate reports configuration errors early.
func (q Query) Validate(g *graph.Graph) error {
	if q.DHat < 1 {
		return fmt.Errorf("protocol: D̂ must be ≥ 1, got %d", q.DHat)
	}
	if q.Hq < 0 || int(q.Hq) >= g.Len() {
		return fmt.Errorf("protocol: querying host %d outside graph of %d hosts", q.Hq, g.Len())
	}
	if q.Params.Vectors == 0 {
		return fmt.Errorf("protocol: zero FM vectors; use agg.DefaultParams")
	}
	return nil
}

// Protocol is a query-processing scheme that can be installed on a
// network.
type Protocol interface {
	// Name identifies the protocol in tables and logs.
	Name() string
	// Init validates the configuration against g, once, before any NewHost.
	Init(g *graph.Graph) error
	// NewHost creates host h's handler. A process serving part of G calls
	// it for its own hosts only, and only the one serving h_q has a Result.
	NewHost(h graph.HostID) sim.Handler
	// Install creates and registers a handler on every host of nw.
	Install(nw *sim.Network) error
	// Deadline is the time the querying host declares its result.
	Deadline() sim.Time
	// Result returns the value declared at h_q; ok is false if the
	// protocol never produced one (e.g. h_q failed).
	Result() (v float64, ok bool)
}

// install is every protocol's Install: Init, then NewHost per host of nw.
func install(p interface {
	Init(*graph.Graph) error
	NewHost(graph.HostID) sim.Handler
}, nw *sim.Network) error {
	g := nw.Graph()
	if err := p.Init(g); err != nil {
		return err
	}
	for h := graph.HostID(0); int(h) < g.Len(); h++ {
		nw.SetHandler(h, p.NewHost(h))
	}
	return nil
}

// Run is a convenience helper: install p on nw, run to p's deadline, and
// return the declared result along with the run's statistics.
func Run(p Protocol, nw *sim.Network) (float64, *sim.Stats, error) {
	if err := p.Install(nw); err != nil {
		return 0, nil, err
	}
	stats := nw.Run(p.Deadline())
	v, ok := p.Result()
	if !ok {
		return math.NaN(), stats, fmt.Errorf("protocol %s: no result declared", p.Name())
	}
	return v, stats, nil
}

// ExactPartial is the conventional (duplicate-sensitive) partial aggregate
// used by SPANNINGTREE: exact running count, sum, min and max, combined
// with + / min / max. Combining the same partial twice double-counts —
// which is exactly why WILDFIRE cannot use it (§5.2).
type ExactPartial struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// NewExactPartial returns the partial for a single host holding v.
func NewExactPartial(v int64) *ExactPartial {
	return &ExactPartial{Count: 1, Sum: v, Min: v, Max: v}
}

// Merge folds other into p with the conventional combine functions.
func (p *ExactPartial) Merge(other *ExactPartial) {
	if other.Count == 0 {
		return
	}
	if p.Count == 0 {
		*p = *other
		return
	}
	p.Count += other.Count
	p.Sum += other.Sum
	if other.Min < p.Min {
		p.Min = other.Min
	}
	if other.Max > p.Max {
		p.Max = other.Max
	}
}

// Clone returns a copy safe to put in a message.
func (p *ExactPartial) Clone() *ExactPartial { c := *p; return &c }

// Result evaluates the partial for the given aggregate kind.
func (p *ExactPartial) Result(k agg.Kind) float64 {
	switch k {
	case agg.Min:
		return float64(p.Min)
	case agg.Max:
		return float64(p.Max)
	case agg.Count:
		return float64(p.Count)
	case agg.Sum:
		return float64(p.Sum)
	case agg.Avg:
		if p.Count == 0 {
			return 0
		}
		return float64(p.Sum) / float64(p.Count)
	default:
		panic(fmt.Sprintf("protocol: unknown kind %d", int(k)))
	}
}
