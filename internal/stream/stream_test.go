package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/node"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/zipfval"
)

func TestWindowIDRoundTrip(t *testing.T) {
	for _, q := range []node.QueryID{1, 2, 7, 1<<32 - 1} {
		for _, k := range []int{0, 1, 5, 1000} {
			id := WindowID(q, k)
			gq, gk, ok := SplitWindowID(id)
			if !ok || gq != q || gk != k {
				t.Fatalf("SplitWindowID(WindowID(%d, %d)) = (%d, %d, %v)", q, k, gq, gk, ok)
			}
			if id <= 0 {
				t.Fatalf("window id %d not positive; the engine rejects it", id)
			}
		}
	}
	// Ordinary one-shot ids never parse as windows.
	for _, id := range []node.QueryID{0, 1, 2, 1000, 1<<32 - 1} {
		if _, _, ok := SplitWindowID(id); ok {
			t.Fatalf("one-shot id %d parsed as a window id", id)
		}
	}
}

// TestSlicePreservesDepartures is the slicing property test: re-basing an
// absolute schedule into window-relative ticks preserves every in-horizon
// departure exactly once, in the window containing its tick.
func TestSlicePreservesDepartures(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const (
		w     = sim.Time(9)
		n     = 7
		hosts = 50
	)
	horizon := w * sim.Time(n)
	for trial := 0; trial < 50; trial++ {
		var sched churn.Timeline
		inHorizon := 0
		for i := 0; i < 40; i++ {
			// A quarter of the departures land past the horizon (dropped),
			// the rest anywhere inside it, duplicates and boundary ticks
			// included.
			tick := sim.Time(rng.Int63n(int64(horizon) + int64(horizon)/3))
			if tick < horizon {
				inHorizon++
			}
			sched = append(sched, churn.Event{H: graph.HostID(rng.Intn(hosts)), T: tick})
		}
		slices := Slice(sched, w, n)
		if len(slices) != n {
			t.Fatalf("got %d slices, want %d", len(slices), n)
		}
		type dep struct {
			H graph.HostID
			T sim.Time
		}
		want := map[dep]int{}
		for _, f := range sched {
			if f.T < horizon {
				want[dep{f.H, f.T}]++
			}
		}
		got := map[dep]int{}
		total := 0
		for k, s := range slices {
			for _, f := range s {
				if f.T < 0 || f.T >= w {
					t.Fatalf("window %d holds out-of-window relative tick %d", k, f.T)
				}
				got[dep{f.H, sim.Time(k)*w + f.T}]++
				total++
			}
		}
		if total != inHorizon {
			t.Fatalf("sliced %d departures, want %d (every in-horizon departure exactly once)", total, inHorizon)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slicing lost or duplicated departures:\n got %v\nwant %v", got, want)
		}
	}
}

func TestSliceClampsNegativeTicks(t *testing.T) {
	slices := Slice(churn.Timeline{{H: 3, T: -4}}, 10, 2)
	if len(slices[0]) != 1 || slices[0][0].T != 0 || len(slices[1]) != 0 {
		t.Fatalf("negative tick not clamped into window 0 at tick 0: %v", slices)
	}
}

// TestWindowScheduleCarriesDeadHostsForward pins the per-window membership
// derivation: a departure affects its own window at a re-based tick and
// every later window as dead-from-tick-0, and a boundary departure at
// exactly k·W belongs to window k, not k−1.
func TestWindowScheduleCarriesDeadHostsForward(t *testing.T) {
	plan := &Plan{
		Query:     1,
		Spec:      protocol.Query{Kind: agg.Count, Hq: 0, DHat: 2, Params: agg.Params{Vectors: 8, Bits: 32}},
		WindowLen: 9,
		Windows:   3,
		Seed:      5,
		Static: churn.Timeline{
			{H: 5, T: 3},  // window 0, relative 3
			{H: 7, T: 9},  // exactly the window-1 boundary: window 1, relative 0
			{H: 9, T: 13}, // window 1, relative 4
		},
	}
	want := [][]churn.Event{
		{{H: 5, T: 3}},
		{{H: 5, T: 0}, {H: 7, T: 0}, {H: 9, T: 4}},
		{{H: 5, T: 0}, {H: 7, T: 0}, {H: 9, T: 0}},
	}
	for k, w := range want {
		got, err := plan.WindowSchedule(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, churn.Timeline(w)) {
			t.Fatalf("window %d schedule = %v, want %v", k, got, w)
		}
	}
	if _, err := plan.WindowSchedule(3); err == nil {
		t.Fatal("window beyond the stream accepted")
	}
}

// TestPlanDerivationIsDeterministic pins the fleet contract: two processes
// constructing the plan from the same shared inputs derive byte-identical
// absolute schedules and window slices, with no communication.
func TestPlanDerivationIsDeterministic(t *testing.T) {
	mk := func() *Plan {
		return &Plan{
			Query:     3,
			Spec:      protocol.Query{Kind: agg.Count, Hq: 1, DHat: 4, Params: agg.Params{Vectors: 8, Bits: 32}},
			WindowLen: 10,
			Windows:   4,
			Seed:      23,
			Static:    churn.Timeline{{H: 9, T: 12}},
			Source:    churn.Uniform{N: 30, Remove: 5},
		}
	}
	a, b := mk(), mk()
	sa, err := a.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("processes derived different absolute schedules:\n%v\n%v", sa, sb)
	}
	if len(sa) != 6 { // 5 churned + 1 static
		t.Fatalf("absolute schedule has %d failures, want 6: %v", len(sa), sa)
	}
	for k := 0; k < 4; k++ {
		wa, _ := a.WindowSchedule(k)
		wb, _ := b.WindowSchedule(k)
		if !reflect.DeepEqual(wa, wb) {
			t.Fatalf("window %d: processes derived different schedules:\n%v\n%v", k, wa, wb)
		}
	}
	if ix := sa.Index(); ix.HostEvents(1) != nil {
		t.Fatal("monitoring host scheduled to fail by the generated model")
	}
}

func TestPlanValidation(t *testing.T) {
	base := func() *Plan {
		return &Plan{
			Query:   1,
			Spec:    protocol.Query{Kind: agg.Count, Hq: 0, DHat: 3, Params: agg.Params{Vectors: 8, Bits: 32}},
			Windows: 2,
		}
	}
	if p := base(); p.Validate() != nil {
		t.Fatal("minimal plan rejected")
	}
	p := base()
	if err := p.Validate(); err != nil || p.WindowLen != 6 {
		t.Fatalf("WindowLen default = %d, want 2·D̂ = 6", p.WindowLen)
	}
	p = base()
	p.WindowLen = 5
	if p.Validate() == nil {
		t.Fatal("window below the §4.2 bound accepted")
	}
	p = base()
	p.Windows = 0
	if p.Validate() == nil {
		t.Fatal("zero windows accepted")
	}
	p = base()
	p.Query = 0
	if p.Validate() == nil {
		t.Fatal("reserved query id accepted")
	}
	p = base()
	p.Static = churn.Timeline{{H: 0, T: 1}}
	if p.Validate() == nil {
		t.Fatal("schedule killing the monitoring host accepted")
	}
}

// runOnEngine streams plan to completion on an all-local chan runtime —
// node.New, Plan.Factory, Start, stream.Start: the calls validityd
// -continuous makes — and returns the windows, which must all arrive.
func runOnEngine(t *testing.T, plan *Plan, g *graph.Graph, values []int64) []Result {
	t.Helper()
	rt, err := node.New(node.Config{
		Graph:     g,
		Values:    values,
		Transport: transport.NewChannel(g.Len(), testHop/2),
		Hop:       testHop,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetQueryFactory(plan.Factory(rt))
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, err := Start(rt, plan)
	if err != nil {
		t.Fatal(err)
	}
	var rs []Result
	for r := range s.Results() {
		if r.Err != nil {
			t.Fatalf("window %d failed: %v", r.Window, r.Err)
		}
		rs = append(rs, r)
	}
	if len(rs) != plan.Windows {
		t.Fatalf("streamed %d windows, want %d", len(rs), plan.Windows)
	}
	return rs
}

// TestLiveContinuousStream runs the whole subsystem end-to-end in one
// process: a churned 40-host fleet on the channel transport streams four
// windows, every window arriving in order with its own bounds satisfied,
// and the shrinking population showing up as shrinking H_U.
func TestLiveContinuousStream(t *testing.T) {
	const hosts = 40
	g := topology.Generate(topology.Random, hosts, 7)
	values := zipfval.Default(7).Values(hosts)
	dHat := g.Diameter(nil) + 2
	plan := &Plan{
		Query:   1,
		Spec:    protocol.Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: agg.Params{Vectors: 64, Bits: 32}},
		Windows: 4,
		Seed:    7,
		Static:  churn.Timeline{{H: 3, T: 1}},
		Source:  churn.Uniform{N: hosts, Remove: 8},
	}
	rs := runOnEngine(t, plan, g, values)
	for i, r := range rs {
		if r.Window != i {
			t.Fatalf("window %d arrived at position %d: results must stream in window order", r.Window, i)
		}
		if !r.Valid {
			t.Fatalf("window %d: %v outside its own matched bounds [%v, %v]",
				r.Window, r.Value, r.MatchedLower, r.MatchedUpper)
		}
		if r.Stats.MessagesSent == 0 {
			t.Fatalf("window %d reports zero messages; per-window counters broken", r.Window)
		}
		if i > 0 && r.HU > rs[i-1].HU {
			t.Fatalf("H_U grew from %d to %d between windows; carryover deaths lost", rs[i-1].HU, r.HU)
		}
	}
	if last := rs[len(rs)-1]; last.HU >= hosts {
		t.Fatalf("final window H_U = %d; churn never bit", last.HU)
	}
}
