// Package churn is the membership layer: the one subsystem every
// execution layer consults for who is part of the network when. The
// deterministic event loop (internal/sim) applies a Timeline to its event
// queue, the live engine (internal/node) enforces one per query on each
// query's own clock, and the oracle (internal/oracle) reads the same
// timeline to bound what a valid answer may be — three consumers, one
// source of dynamism.
//
// Membership is an event timeline: hosts *leave* (§3.2) and *join*. The
// paper's validity semantics (§3–§4) are defined over networks where both
// happen — H_U is the union of all hosts present at some instant of the
// computation, so arrivals can push it past the initial host set, while
// H_C shrinks to the hosts continuously present (joiners never qualify;
// hosts that leave and return do not either). The primary experimental
// model (§6.2) removes R randomly selected hosts from G at a uniform rate
// over an interval [t0, tn]; the session-based model draws exponentially
// distributed host lifetimes (the median-60-minutes Gnutella sessions of
// footnote 1) and, with a rebirth mean, exponentially distributed
// downtimes after which departed hosts rejoin. All models sit behind the
// Source interface, which derives per-query timelines deterministically
// from a seed so every process of a fleet regenerates identical
// membership timelines without coordination.
package churn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"validity/internal/graph"
	"validity/internal/sim"
)

// EventKind says what a membership event does to its host.
type EventKind uint8

const (
	// Leave removes the host from the network at the event's tick (§3.2):
	// it processes nothing more and its traffic silently stops.
	Leave EventKind = iota
	// Join adds the host at the event's tick. A host whose first event is
	// a Join is a late joiner — absent from tick 0 until it arrives; a
	// Join after a Leave is a rebirth (the session model's rejoin).
	Join
)

func (k EventKind) String() string {
	switch k {
	case Leave:
		return "leave"
	case Join:
		return "join"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one membership transition: host H leaves or joins at tick T.
// The zero Kind is Leave, so a departure-only literal is just {H: h, T: t}.
type Event struct {
	H    graph.HostID
	T    sim.Time
	Kind EventKind
}

// Timeline is a set of membership events ordered by time.
type Timeline []Event

// Apply installs every event on the network: leaves as scheduled
// failures, joins as scheduled arrivals. Hosts whose first event is a
// Join are marked initially dead so their Start runs at join time, not at
// tick 0.
func (tl Timeline) Apply(nw *sim.Network) {
	ix := tl.Index()
	for _, h := range ix.Hosts() {
		if !ix.InitialMember(h) {
			nw.SetInitiallyDead(h)
		}
	}
	for _, e := range tl {
		if e.Kind == Join {
			nw.JoinAt(e.H, e.T)
		} else {
			nw.FailAt(e.H, e.T)
		}
	}
}

// FailTime returns the first departure time of h, or -1 if h never
// leaves. It is an O(n) scan; callers probing many hosts should build an
// Index once.
func (tl Timeline) FailTime(h graph.HostID) sim.Time {
	t := sim.Time(-1)
	for _, e := range tl {
		if e.H == h && e.Kind == Leave && (t < 0 || e.T < t) {
			t = e.T
		}
	}
	return t
}

// UniformRemoval selects R distinct hosts uniformly at random from the n
// hosts (excluding `protect`, normally the querying host h_q) and spreads
// their failure times at a uniform rate over [t0, tn] (§6.2). It panics if
// R exceeds the number of removable hosts.
func UniformRemoval(n, r int, protect graph.HostID, t0, tn sim.Time, rng *rand.Rand) Timeline {
	if tn < t0 {
		panic(fmt.Sprintf("churn: tn %d < t0 %d", tn, t0))
	}
	removable := make([]graph.HostID, 0, n)
	for h := 0; h < n; h++ {
		if graph.HostID(h) != protect {
			removable = append(removable, graph.HostID(h))
		}
	}
	if r > len(removable) {
		panic(fmt.Sprintf("churn: cannot remove %d of %d removable hosts", r, len(removable)))
	}
	rng.Shuffle(len(removable), func(i, j int) {
		removable[i], removable[j] = removable[j], removable[i]
	})
	out := make(Timeline, r)
	span := float64(tn - t0)
	for i := 0; i < r; i++ {
		// Uniform rate: failure i at t0 + (i+1)/(r+1) of the interval,
		// jittered within its slot for realism.
		base := span * float64(i) / float64(r)
		slot := span / float64(r)
		t := t0 + sim.Time(base+rng.Float64()*slot)
		if t > tn {
			t = tn
		}
		out[i] = Event{H: removable[i], T: t}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// SessionTimeline is the session model with arrivals: every host except
// protect alternates exponentially distributed uptimes (mean `mean`
// ticks) and, when rejoin > 0, exponentially distributed downtimes (mean
// `rejoin` ticks) after which it returns — the leave/join/leave session
// cycles of a real P2P population. rejoin = 0 is departures only: one
// lifetime per host, scheduled if it falls within [0, horizon] — the
// memoryless "every host has the same probability of leaving at each
// instant" assumption of §5.4. Events past the horizon are not emitted.
func SessionTimeline(n int, protect graph.HostID, mean, rejoin float64, horizon sim.Time, rng *rand.Rand) Timeline {
	if mean <= 0 {
		panic("churn: mean lifetime must be positive")
	}
	if rejoin < 0 {
		panic("churn: rejoin mean must be non-negative")
	}
	var out Timeline
	for h := 0; h < n; h++ {
		if graph.HostID(h) == protect {
			continue
		}
		life := rng.ExpFloat64() * mean
		if life > math.MaxInt32 {
			continue
		}
		t := sim.Time(life)
		if t > horizon {
			continue
		}
		out = append(out, Event{H: graph.HostID(h), T: t})
		if rejoin <= 0 {
			continue
		}
		// Rebirth: downtime, rejoin, a fresh lifetime, and so on until the
		// horizon. Clock arithmetic stays in float ticks so short cycles
		// do not collapse to zero-length sessions by truncation alone.
		at := life
		for {
			at += rng.ExpFloat64() * rejoin
			if at > math.MaxInt32 || sim.Time(at) > horizon {
				break
			}
			out = append(out, Event{H: graph.HostID(h), T: sim.Time(at), Kind: Join})
			at += rng.ExpFloat64() * mean
			if at > math.MaxInt32 || sim.Time(at) > horizon {
				break
			}
			out = append(out, Event{H: graph.HostID(h), T: sim.Time(at)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// ParseEvents parses the operator event grammar into a Timeline over an
// n-host network:
//
//	host@tick     the host leaves at the tick (§3.2)
//	+host@tick    the host joins at the tick; with no earlier event of its
//	              own, it is a late joiner — absent from tick 0 until then
//
// Entries are comma-separated; ticks are δ units on the consuming clock
// (each query's own clock for one-shot queries, the stream's absolute
// clock in continuous mode). This is validityd's -kill grammar.
func ParseEvents(spec string, n int) (Timeline, error) {
	var out Timeline
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind := Leave
		if strings.HasPrefix(part, "+") {
			kind = Join
			part = strings.TrimSpace(part[1:])
		}
		i := strings.IndexByte(part, '@')
		if i < 0 {
			return nil, fmt.Errorf("churn: event entry %q is not host@tick or +host@tick", part)
		}
		h, err := strconv.Atoi(part[:i])
		if err != nil {
			return nil, fmt.Errorf("churn: event entry %q: %w", part, err)
		}
		t, err := strconv.Atoi(part[i+1:])
		if err != nil {
			return nil, fmt.Errorf("churn: event entry %q: %w", part, err)
		}
		if h < 0 || h >= n {
			return nil, fmt.Errorf("churn: event host %d outside [0,%d)", h, n)
		}
		if t < 0 {
			return nil, fmt.Errorf("churn: event tick %d is negative (ticks count from the clock's start)", t)
		}
		out = append(out, Event{H: graph.HostID(h), T: sim.Time(t), Kind: kind})
	}
	return out, nil
}
