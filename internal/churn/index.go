package churn

import (
	"math"
	"sort"

	"validity/internal/graph"
	"validity/internal/sim"
)

// forever is the open end of a membership span: the host never leaves
// again.
const forever = sim.Time(math.MaxInt64)

// span is one session of presence: the host is a member on [from, to).
type span struct {
	from, to sim.Time
}

// Index is a Timeline prepared for repeated membership queries: per-host
// presence spans for O(sessions) liveness probes, the normalized
// transition list each consumer replays (the engine schedules a timer
// per transition, the simulator an event), and the first-departure map
// the departures-only callers still use. The plain Timeline.FailTime
// scans the whole slice on every call, which is fine for one-shot
// reporting but quadratic when a loop probes every host —
// the oracle, the continuous-query plan, and the engine's per-query
// membership tables all go through an Index instead.
//
// Presence semantics: a host with no events is a member for the whole
// run. A Leave at t ends a session at t (the host is dead AT t, matching
// §3.2's "processes nothing more"); a Join at t starts one (the host is
// alive AT t). A host whose first event is a Join is a late joiner,
// absent on [0, join). Events that do not change state (a Leave while
// absent, a Join while present) are dropped during normalization, and
// ties at one tick order Leave before Join — the event loop's evFail <
// evJoin ordering — so a leave/join pair at one tick nets to presence.
type Index struct {
	spans  map[graph.HostID][]span
	events map[graph.HostID]Timeline // normalized per-host transitions
	first  map[graph.HostID]sim.Time // first departure (FailTime)
	late   map[graph.HostID]bool     // first event is a Join
	hosts  []graph.HostID            // hosts with events, ascending
}

// Index builds the indexed view of the timeline. The timeline is not
// retained.
func (tl Timeline) Index() *Index {
	ix := &Index{
		spans:  make(map[graph.HostID][]span),
		events: make(map[graph.HostID]Timeline),
		first:  make(map[graph.HostID]sim.Time),
		late:   make(map[graph.HostID]bool),
	}
	sorted := append(Timeline(nil), tl...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].T < sorted[j].T })
	perHost := make(map[graph.HostID]Timeline)
	for _, e := range sorted {
		perHost[e.H] = append(perHost[e.H], e)
		if e.Kind == Leave {
			if _, ok := ix.first[e.H]; !ok {
				ix.first[e.H] = e.T
			}
		}
	}
	for h, evs := range perHost {
		// Same-tick ties: Leave applies before Join (evFail < evJoin).
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].T != evs[j].T {
				return evs[i].T < evs[j].T
			}
			return evs[i].Kind < evs[j].Kind
		})
		alive := evs[0].Kind != Join
		if !alive {
			ix.late[h] = true
		}
		cur := sim.Time(0)
		var spans []span
		var norm Timeline
		for _, e := range evs {
			switch {
			case e.Kind == Leave && alive:
				if e.T > cur {
					spans = append(spans, span{from: cur, to: e.T})
				}
				alive = false
				norm = append(norm, e)
			case e.Kind == Join && !alive:
				cur = e.T
				alive = true
				norm = append(norm, e)
			}
		}
		if alive {
			spans = append(spans, span{from: cur, to: forever})
		}
		ix.spans[h] = spans
		ix.events[h] = norm
		ix.hosts = append(ix.hosts, h)
	}
	sort.Slice(ix.hosts, func(i, j int) bool { return ix.hosts[i] < ix.hosts[j] })
	return ix
}

// Len returns the number of distinct hosts that ever leave.
func (ix *Index) Len() int { return len(ix.first) }

// Hosts returns the hosts the timeline mentions at all, ascending.
// Hosts absent from it are members for the whole run.
func (ix *Index) Hosts() []graph.HostID { return ix.hosts }

// HostEvents returns h's normalized membership transitions in time
// order: state-changing Leaves and Joins only, no-ops dropped. Consumers
// that enforce the timeline (the engine's timer heap, the simulator's
// event queue) replay exactly these.
func (ix *Index) HostEvents(h graph.HostID) Timeline { return ix.events[h] }

// InitialMember reports whether h is part of the network at tick 0 —
// i.e. h is not a late joiner. Note a host that leaves at tick 0 is
// still an initial member: it was present at the starting instant.
func (ix *Index) InitialMember(h graph.HostID) bool { return !ix.late[h] }

// ArriveTime returns the tick h becomes part of the network: 0 for
// initial members, the first join tick for late joiners.
func (ix *Index) ArriveTime(h graph.HostID) sim.Time {
	if !ix.late[h] {
		return 0
	}
	return ix.events[h][0].T
}

// FailTime returns the first departure time of h, or -1 if h never
// leaves. With joins in play a departed host may return; probe AliveAt
// for current membership.
func (ix *Index) FailTime(h graph.HostID) sim.Time {
	if t, ok := ix.first[h]; ok {
		return t
	}
	return -1
}

// AliveAt reports whether h is a member at tick t: inside one of its
// presence sessions, or unmentioned by the timeline entirely.
func (ix *Index) AliveAt(h graph.HostID, t sim.Time) bool {
	spans, ok := ix.spans[h]
	if !ok {
		return t >= 0
	}
	for _, s := range spans {
		if s.from <= t && t < s.to {
			return true
		}
	}
	return false
}

// AliveDuring reports whether h is a member at some instant of
// [start, end] — the per-host predicate behind H_U: arrivals inside the
// interval count even though the host was absent when it opened.
func (ix *Index) AliveDuring(h graph.HostID, start, end sim.Time) bool {
	spans, ok := ix.spans[h]
	if !ok {
		return true
	}
	for _, s := range spans {
		if s.from <= end && s.to > start {
			return true
		}
	}
	return false
}

// PresentThroughout reports whether h is a member during the entire
// interval [start, end] — the predicate behind H_C's stable paths
// (§4.1). A host that leaves and rejoins inside the interval does not
// qualify, no matter how brief the absence.
func (ix *Index) PresentThroughout(h graph.HostID, start, end sim.Time) bool {
	spans, ok := ix.spans[h]
	if !ok {
		return true
	}
	for _, s := range spans {
		if s.from <= start && s.to > end {
			return true
		}
	}
	return false
}

// Survives reports whether h is a member for the whole interval
// [0, horizon] — the membership predicate behind the oracle's H_C for
// one-shot queries.
func (ix *Index) Survives(h graph.HostID, horizon sim.Time) bool {
	return ix.PresentThroughout(h, 0, horizon)
}
