package churn

import (
	"math/rand"
	"slices"
	"testing"

	"validity/internal/graph"
	"validity/internal/sim"
)

// naiveEvents is h's part of tl in replay order — time, then Leave before
// Join at one tick, then timeline order — found by scanning all of tl.
func naiveEvents(tl Timeline, h graph.HostID) Timeline {
	var evs Timeline
	for _, e := range tl {
		if e.H == h {
			evs = append(evs, e)
		}
	}
	slices.SortStableFunc(evs, func(a, b Event) int {
		if a.T != b.T {
			return int(a.T - b.T)
		}
		return int(a.Kind) - int(b.Kind)
	})
	return evs
}

// naiveAlive replays h's events up to t from its tick-0 state: absent
// before tick 0, and at tick 0 present unless its first event is a Join.
func naiveAlive(tl Timeline, h graph.HostID, t sim.Time) bool {
	if t < 0 {
		return false
	}
	evs := naiveEvents(tl, h)
	alive := len(evs) == 0 || evs[0].Kind != Join
	for _, e := range evs {
		if e.T <= t {
			alive = e.Kind == Join
		}
	}
	return alive
}

// TestIndexAgreesWithNaiveScan holds every probe of the index to a scan of
// the whole timeline, on random timelines with duplicates, no-op events
// and same-tick leave/join pairs, over hosts the timeline never mentions
// too.
func TestIndexAgreesWithNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const hosts, horizon = 12, 20
	for trial := 0; trial < 300; trial++ {
		tl := make(Timeline, rng.Intn(40))
		for i := range tl {
			tl[i] = Event{H: graph.HostID(rng.Intn(hosts)), T: sim.Time(rng.Intn(horizon)), Kind: EventKind(rng.Intn(2))}
		}
		ix := tl.Index()
		var mentioned []graph.HostID
		for h := graph.HostID(0); h < hosts+2; h++ {
			evs := naiveEvents(tl, h)
			if len(evs) > 0 {
				mentioned = append(mentioned, h)
			}
			// HostEvents: the state changes of the replay, in order.
			var want Timeline
			alive := len(evs) == 0 || evs[0].Kind != Join
			for _, e := range evs {
				if (e.Kind == Join) != alive {
					want = append(want, e)
					alive = e.Kind == Join
				}
			}
			got := ix.HostEvents(h)
			if !slices.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("trial %d: HostEvents(%d) = %v (cap %d), want %v capped", trial, h, got, cap(got), want)
			}
			late := len(evs) > 0 && evs[0].Kind == Join
			if ix.InitialMember(h) == late {
				t.Fatalf("trial %d: InitialMember(%d) = %t, want %t", trial, h, !late, !late)
			}
			wantArrive := sim.Time(0)
			if late {
				wantArrive = evs[0].T
			}
			if got := ix.ArriveTime(h); got != wantArrive {
				t.Fatalf("trial %d: ArriveTime(%d) = %d, want %d", trial, h, got, wantArrive)
			}
			var aliveAt [horizon + 1]bool
			for at := sim.Time(-1); at <= horizon; at++ {
				want := naiveAlive(tl, h, at)
				if got := ix.AliveAt(h, at); got != want {
					t.Fatalf("trial %d: AliveAt(%d, %d) = %t, want %t", trial, h, at, got, want)
				}
				if at >= 0 {
					aliveAt[at] = want
				}
			}
			for start := sim.Time(0); start <= horizon; start++ {
				for end := start; end <= horizon; end++ {
					some, all := len(evs) == 0, true
					for _, a := range aliveAt[start : end+1] {
						some = some || a
						all = all && a
					}
					// A leave and a rejoin at one tick inside the interval
					// leave h present at every tick, yet it left.
					for _, e := range want {
						all = all && !(e.Kind == Leave && start < e.T && e.T <= end)
					}
					if got := ix.AliveDuring(h, start, end); got != some {
						t.Fatalf("trial %d: AliveDuring(%d, %d, %d) = %t, want %t", trial, h, start, end, got, some)
					}
					if got := ix.PresentThroughout(h, start, end); got != all {
						t.Fatalf("trial %d: PresentThroughout(%d, %d, %d) = %t, want %t", trial, h, start, end, got, all)
					}
				}
			}
		}
		if got := ix.Hosts(); !slices.Equal(got, mentioned) {
			t.Fatalf("trial %d: Hosts() = %v, want %v", trial, got, mentioned)
		}
	}
}

// TestIndexBuildAllocsPerBuildNotPerHost pins an index build's garbage: a
// copy of the timeline and the flat arrays, the same at 60 hosts as at
// 2,048.
func TestIndexBuildAllocsPerBuildNotPerHost(t *testing.T) {
	var perBuild []float64
	for _, n := range []int{60, 2048} {
		tl := Sessions{N: n, Mean: 20, Window: 40, Rejoin: 10}.Schedule(7, 0, 40)
		perBuild = append(perBuild, testing.AllocsPerRun(20, func() { tl.Index() }))
	}
	if perBuild[0] != perBuild[1] || perBuild[0] > 5 {
		t.Fatalf("%v allocations per build at 60 hosts, %v at 2,048; want the same ≤ 5 at both", perBuild[0], perBuild[1])
	}
}
