package churn

import (
	"cmp"
	"math"
	"slices"

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
// presence spans for O(sessions) liveness probes and the normalized
// transition list each consumer replays (the engine schedules a timer
// per transition, the simulator an event). Scanning the timeline per
// probe would be quadratic when a loop probes every host — the oracle,
// the continuous-query plan, and the engine's per-query membership
// tables all go through an Index instead.
//
// Presence semantics: a host with no events is a member for the whole
// run. A Leave at t ends a session at t (the host is dead AT t, matching
// §3.2's "processes nothing more"); a Join at t starts one (the host is
// alive AT t). A host whose first event is a Join is a late joiner,
// absent on [0, join). Events that do not change state (a Leave while
// absent, a Join while present) are dropped during normalization, and
// ties at one tick order Leave before Join — the event loop's evFail <
// evJoin ordering — so a leave/join pair at one tick nets to presence.
//
// The layout is flat: the mentioned hosts ascending, and per host where
// its runs start in one spans array and one normalized-events array, so a
// build costs a handful of allocations whatever the host count and a
// probe is a binary search.
type Index struct {
	hosts []graph.HostID // hosts with events, ascending
	// runs[i] and runs[i+1] bracket hosts[i]'s spans and events; the last
	// entry closes the arrays.
	runs   []hostRuns
	spans  []span
	events Timeline // normalized transitions, grouped by host in time order
}

// hostRuns is where one host's runs start in Index.spans and Index.events.
type hostRuns struct {
	spans, events int32
	late          bool // first event is a Join
}

// Index builds the indexed view of the timeline. The timeline is not
// retained.
func (tl Timeline) Index() *Index {
	// One stable sort by (host, tick, kind): each host's events in time
	// order, same-tick ties Leave before Join (evFail < evJoin), and equal
	// events in timeline order.
	evs := slices.Clone(tl)
	slices.SortStableFunc(evs, func(a, b Event) int {
		if c := cmp.Compare(a.H, b.H); c != 0 {
			return c
		}
		if c := cmp.Compare(a.T, b.T); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	n := 0
	for i := range evs {
		if i == 0 || evs[i].H != evs[i-1].H {
			n++
		}
	}
	ix := &Index{
		hosts: make([]graph.HostID, 0, n),
		runs:  make([]hostRuns, 0, n+1),
		// A host has at most one span per event plus its open last one.
		spans: make([]span, 0, len(evs)+n),
	}
	// Normalization keeps a subsequence of each host's run, so the kept
	// events compact in place to the front of evs.
	kept := 0
	for lo := 0; lo < len(evs); {
		h := evs[lo].H
		hi := lo + 1
		for hi < len(evs) && evs[hi].H == h {
			hi++
		}
		alive := evs[lo].Kind != Join
		ix.hosts = append(ix.hosts, h)
		ix.runs = append(ix.runs, hostRuns{spans: int32(len(ix.spans)), events: int32(kept), late: !alive})
		cur := sim.Time(0)
		for _, e := range evs[lo:hi] {
			switch {
			case e.Kind == Leave && alive:
				if e.T > cur {
					ix.spans = append(ix.spans, span{from: cur, to: e.T})
				}
				alive = false
				evs[kept] = e
				kept++
			case e.Kind == Join && !alive:
				cur = e.T
				alive = true
				evs[kept] = e
				kept++
			}
		}
		if alive {
			ix.spans = append(ix.spans, span{from: cur, to: forever})
		}
		lo = hi
	}
	ix.runs = append(ix.runs, hostRuns{spans: int32(len(ix.spans)), events: int32(kept)})
	ix.events = evs[:kept:kept]
	return ix
}

// find returns h's position in ix.hosts, or false if the timeline never
// mentions h.
func (ix *Index) find(h graph.HostID) (int, bool) {
	return slices.BinarySearch(ix.hosts, h)
}

// hostSpans returns the presence spans of the host at position i.
func (ix *Index) hostSpans(i int) []span {
	return ix.spans[ix.runs[i].spans:ix.runs[i+1].spans]
}

// Hosts returns the hosts the timeline mentions at all, ascending.
// Hosts absent from it are members for the whole run.
func (ix *Index) Hosts() []graph.HostID { return ix.hosts }

// HostEvents returns h's normalized membership transitions in time
// order: state-changing Leaves and Joins only, no-ops dropped. Consumers
// that enforce the timeline (the engine's timer heap, the simulator's
// event queue) replay exactly these. The slice is the index's own, capped
// at its length: read it, do not write it.
func (ix *Index) HostEvents(h graph.HostID) Timeline {
	i, ok := ix.find(h)
	if !ok {
		return nil
	}
	lo, hi := ix.runs[i].events, ix.runs[i+1].events
	return ix.events[lo:hi:hi]
}

// InitialMember reports whether h is part of the network at tick 0 —
// i.e. h is not a late joiner. Note a host that leaves at tick 0 is
// still an initial member: it was present at the starting instant.
func (ix *Index) InitialMember(h graph.HostID) bool {
	i, ok := ix.find(h)
	return !ok || !ix.runs[i].late
}

// ArriveTime returns the tick h becomes part of the network: 0 for
// initial members, the first join tick for late joiners.
func (ix *Index) ArriveTime(h graph.HostID) sim.Time {
	if ix.InitialMember(h) {
		return 0
	}
	return ix.HostEvents(h)[0].T
}

// AliveAt reports whether h is a member at tick t: inside one of its
// presence sessions, or unmentioned by the timeline entirely.
func (ix *Index) AliveAt(h graph.HostID, t sim.Time) bool {
	i, ok := ix.find(h)
	if !ok {
		return t >= 0
	}
	for _, s := range ix.hostSpans(i) {
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
	i, ok := ix.find(h)
	if !ok {
		return true
	}
	for _, s := range ix.hostSpans(i) {
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
	i, ok := ix.find(h)
	if !ok {
		return true
	}
	for _, s := range ix.hostSpans(i) {
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
