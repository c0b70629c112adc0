// Package oracle implements the paper's ORACLE (§6.2): an omniscient
// observer of all events in G that computes the Single-Site Validity
// bounds for a query issued at h_q over the interval [0, T]:
//
//   - H_U = ∪_t H_t, the hosts that are members at some instant of the
//     interval: every initial member (including one that departs the very
//     first tick — it was present at the starting instant) plus every
//     late joiner whose arrival falls inside the interval, so with joins
//     modeled H_U can exceed the initial host set;
//   - H_C, the hosts with at least one stable path to h_q: a path all of
//     whose hosts (and edges) stay alive during the entire interval
//     (§4.1). Continuous presence is required — a host that leaves and
//     rejoins mid-interval drops out of H_C no matter how brief the
//     absence, exactly like a late joiner.
//
// Because link failures are not modeled separately, a stable path is
// exactly a path inside the subgraph induced by hosts present throughout
// [0, T]; H_C is therefore the connected component of h_q in that
// subgraph (provided h_q itself is, which experiments guarantee by
// protecting it from churn).
//
// The oracle also evaluates the q(H_C) and q(H_U) bounds for any aggregate
// and provides the §2.4 post-hoc validity metrics (Completeness, Relative
// Error) that best-effort work used before Single-Site Validity existed.
package oracle

import (
	"fmt"
	"math"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/sim"
)

// Bounds captures the oracle's view of one query interval.
type Bounds struct {
	// HC is the lower-bounding host set (stable-path reachable).
	HC []graph.HostID
	// HU is the upper-bounding host set (alive at some instant).
	HU []graph.HostID
	// LowerValue and UpperValue are q(H_C) and q(H_U). For monotone
	// aggregates (count, sum over non-negative values, max) Lower ≤ Upper;
	// for min the inequality flips and for avg neither bounds the other —
	// Valid() handles each kind.
	LowerValue float64
	UpperValue float64
	// Kind is the aggregate the values were computed for.
	Kind agg.Kind
}

// Compute derives the bounds for a query issued at hq at time 0 with
// deadline T, given the initial topology g, per-host values, and the
// membership timeline. Hosts whose every membership transition falls
// strictly after T count as present for the interval.
//
// Times are ticks on the query's own clock: under the engine's per-query
// churn, every concurrent query hands its own timeline here and gets its
// own H_C/H_U sets back — there is no shared clock to rebase onto.
func Compute(g *graph.Graph, values []int64, hq graph.HostID, tl churn.Timeline, T sim.Time, kind agg.Kind) Bounds {
	if len(values) != g.Len() {
		panic(fmt.Sprintf("oracle: %d values for %d hosts", len(values), g.Len()))
	}
	ix := tl.Index()
	survives := func(h graph.HostID) bool { return ix.Survives(h, T) }
	// H_U: a member at some instant of [0, T] — every initial host
	// qualifies (present at the starting instant, even one departing at
	// tick 0), and so does every late joiner arriving by the deadline.
	// ArriveTime is 0 for initial members, so one predicate covers both.
	hu := make([]graph.HostID, 0, g.Len())
	for h := 0; h < g.Len(); h++ {
		if ix.ArriveTime(graph.HostID(h)) <= T {
			hu = append(hu, graph.HostID(h))
		}
	}
	// H_C: component of hq among hosts present throughout the interval.
	var hc []graph.HostID
	if survives(hq) {
		hc = g.Component(hq, survives)
	}
	b := Bounds{HC: hc, HU: hu, Kind: kind}
	b.LowerValue = agg.Exact(kind, gather(values, hc))
	b.UpperValue = agg.Exact(kind, gather(values, hu))
	return b
}

// ComputeInterval derives the bounds of one window [start, end] of a
// continuous query (§4.2), given the stream's absolute membership
// timeline as an Index. H_U is the set of hosts that are members at some
// instant of the window — everyone alive when it opens plus everyone
// arriving before it closes, so a window over a growing population shows
// H_U growing — and H_C is the connected component of hq among hosts
// present throughout the window. Every window of a stream is judged
// against its own pair, which is what makes the answer sequence
// Continuous Single-Site Valid rather than a one-time bound stretched
// over a churning interval.
func ComputeInterval(g *graph.Graph, values []int64, hq graph.HostID, ix *churn.Index, start, end sim.Time, kind agg.Kind) Bounds {
	if len(values) != g.Len() {
		panic(fmt.Sprintf("oracle: %d values for %d hosts", len(values), g.Len()))
	}
	survives := func(h graph.HostID) bool { return ix.PresentThroughout(h, start, end) }
	hu := make([]graph.HostID, 0, g.Len())
	for h := 0; h < g.Len(); h++ {
		if ix.AliveDuring(graph.HostID(h), start, end) {
			hu = append(hu, graph.HostID(h))
		}
	}
	var hc []graph.HostID
	if survives(hq) {
		hc = g.Component(hq, survives)
	}
	b := Bounds{HC: hc, HU: hu, Kind: kind}
	b.LowerValue = agg.Exact(kind, gather(values, hc))
	b.UpperValue = agg.Exact(kind, gather(values, hu))
	return b
}

// FMSlack is the multiplicative tolerance granted to FM-estimated results
// when judging them against the bounds: 1 + 4·(0.78/√c), four standard
// errors of the Flajolet–Martin estimator at c repetitions. Min/max are
// exact and get no slack.
func FMSlack(kind agg.Kind, vectors int) float64 {
	if !kind.DuplicateSensitive() {
		return 1
	}
	return 1 + 4*0.78/math.Sqrt(float64(vectors))
}

func gather(values []int64, hosts []graph.HostID) []int64 {
	out := make([]int64, len(hosts))
	for i, h := range hosts {
		out[i] = values[h]
	}
	return out
}

// Valid reports whether a reported result v satisfies Single-Site
// Validity's value-level consequence: v = q(H) for some H_C ⊆ H ⊆ H_U.
// For monotone aggregates this is exactly Lower ≤ v ≤ Upper (count, sum of
// non-negative values, and max grow with H; min shrinks). For avg any
// value between the min and max attribute value of H_U could be q(H) of
// some valid H, so the check is necessarily looser; callers doing
// sketch-level verification should use SketchValid instead.
//
// eps loosens the comparison for estimate-based results (count/sum/avg
// report FM estimates, which Theorem 5.3 only bounds within a factor).
func (b Bounds) Valid(v, eps float64) bool {
	lo, hi := b.LowerValue, b.UpperValue
	if b.Kind == agg.Min {
		lo, hi = hi, lo
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return v >= lo-eps && v <= hi+eps
}

// ValidFactor is Valid with multiplicative slack: accepts v within
// [Lower/f, Upper·f] (for the monotone orientation). Used for FM-estimate
// results where Theorem 5.2 bounds error by a factor.
func (b Bounds) ValidFactor(v, f float64) bool {
	if f < 1 {
		f = 1
	}
	lo, hi := b.LowerValue, b.UpperValue
	if b.Kind == agg.Min {
		lo, hi = hi, lo
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return v >= lo/f && v <= hi*f
}
