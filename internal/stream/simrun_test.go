package stream

import (
	"math/rand"
	"testing"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// simFixture is the 400-host Gnutella network the event-loop tests share.
func simFixture() (*graph.Graph, []int64, *Plan) {
	g := topology.NewGnutella(400, 1)
	return g, zipfval.Default(1).Values(g.Len()), &Plan{
		Query: 1,
		Spec: protocol.Query{
			Kind:   agg.Max,
			Hq:     0,
			DHat:   g.DiameterSampled(2, nil) + 2,
			Params: agg.Params{Vectors: 16, Bits: 32},
		},
		Windows: 4,
		Seed:    1,
	}
}

// runSim runs p on the event loop with the engine's own FM slack.
func runSim(t *testing.T, p *Plan, g *graph.Graph, values []int64) []Result {
	t.Helper()
	rs, err := RunSim(p, g, values, sim.MediumPointToPoint, oracle.FMSlack(p.Spec.Kind, p.Spec.Params.Vectors))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != p.Windows {
		t.Fatalf("ran %d windows, want %d", len(rs), p.Windows)
	}
	return rs
}

func TestRunSimValidation(t *testing.T) {
	g, values, base := simFixture()
	run := func(edit func(*Plan), g *graph.Graph, values []int64) error {
		p := &Plan{Query: base.Query, Spec: base.Spec, Windows: base.Windows, Seed: base.Seed}
		edit(p)
		_, err := RunSim(p, g, values, sim.MediumPointToPoint, 1)
		return err
	}
	if run(func(*Plan) {}, g, values) != nil {
		t.Fatal("valid plan rejected")
	}
	if run(func(*Plan) {}, nil, values) == nil {
		t.Fatal("nil graph accepted")
	}
	if run(func(*Plan) {}, g, values[:1]) == nil {
		t.Fatal("short values accepted")
	}
	if run(func(p *Plan) { p.Spec.DHat = 0 }, g, values) == nil {
		t.Fatal("zero D̂ accepted")
	}
	if run(func(p *Plan) { p.Windows = 0 }, g, values) == nil {
		t.Fatal("zero windows accepted")
	}
	if run(func(p *Plan) { p.WindowLen = 3 }, g, values) == nil {
		t.Fatal("window below 2·D̂ accepted (§4.2 computability bound)")
	}
	if run(func(p *Plan) { p.Static = churn.Timeline{{H: p.Spec.Hq, T: 5}} }, g, values) == nil {
		t.Fatal("failing h_q accepted")
	}
	if run(func(p *Plan) { p.Static = churn.Timeline{{H: p.Spec.Hq, T: 5, Kind: churn.Join}} }, g, values) == nil {
		t.Fatal("h_q as a late joiner accepted")
	}
}

func TestRunSimNoChurnAllWindowsEqualExact(t *testing.T) {
	g, values, p := simFixture()
	truth := agg.Exact(agg.Max, values)
	for _, r := range runSim(t, p, g, values) {
		if r.Value != truth {
			t.Fatalf("window %d: max %v != %v", r.Window, r.Value, truth)
		}
		if !r.Valid {
			t.Fatalf("window %d invalid without churn", r.Window)
		}
		if r.HC != g.Len() || r.HU != g.Len() {
			t.Fatalf("window %d: HC=%d HU=%d", r.Window, r.HC, r.HU)
		}
	}
}

func TestRunSimWindowsShrinkWithChurnAndStayValid(t *testing.T) {
	g, values, p := simFixture()
	w := p.Spec.Deadline()
	p.Static = churn.UniformRemoval(g.Len(), 120, p.Spec.Hq, 0, w*sim.Time(p.Windows),
		rand.New(rand.NewSource(2)))
	rs := runSim(t, p, g, values)
	// Departures only: a window's H_U is exactly its opening population.
	for i := 1; i < len(rs); i++ {
		if rs[i].HU > rs[i-1].HU {
			t.Fatalf("population grew between windows %d→%d", i-1, i)
		}
	}
	if first, last := rs[0], rs[len(rs)-1]; last.HU >= first.HU {
		t.Fatalf("H_U did not shrink across windows: %d → %d", first.HU, last.HU)
	}
	for _, r := range rs {
		if !r.Valid {
			t.Fatalf("window %d: max %v outside window bounds [%v,%v]",
				r.Window, r.Value, r.Lower, r.Upper)
		}
		if r.Start != int64(r.Window)*int64(w) || r.End != r.Start+int64(w) {
			t.Fatalf("window %d misaligned: [%d,%d)", r.Window, r.Start, r.End)
		}
	}
}

// chain builds the path 0-1-…-(n-1) with host i holding value i+1, so the
// MAX at host 0 names the far end of the chain that is still attached.
func chain(n int) (*graph.Graph, []int64) {
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID(i+1))
	}
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i + 1)
	}
	return g, values
}

// Per-window bounds are the whole point (§4.2): the late windows' H_C
// must reflect only the current population, not the full initial one.
func TestRunSimPerWindowBoundsTrackPopulation(t *testing.T) {
	const n = 40
	g, values := chain(n)
	dHat := n + 1
	win := sim.Time(2 * dHat)
	p := &Plan{
		Query:   1,
		Spec:    protocol.Query{Kind: agg.Max, Hq: 0, DHat: dHat, Params: agg.Params{Vectors: 8, Bits: 32}},
		Windows: 3,
		Seed:    3,
		// Host 20 dies during window 1 (cutting 20.. off), host 10 during
		// window 2.
		Static: churn.Timeline{
			{H: 20, T: win + 2},
			{H: 10, T: 2*win + 2},
		},
	}
	rs := runSim(t, p, g, values)
	// Window 0: everything stable; max = 40 exactly.
	if rs[0].Value != 40 || rs[0].Lower != 40 {
		t.Fatalf("window 0: value %v lower %v, want 40/40", rs[0].Value, rs[0].Lower)
	}
	// Window 1: host 20 fails mid-window ⇒ H_C = {0..19}, lower = 20;
	// upper still 40 (alive at start).
	if rs[1].Lower != 20 || rs[1].Upper != 40 {
		t.Fatalf("window 1 bounds [%v,%v], want [20,40]", rs[1].Lower, rs[1].Upper)
	}
	if !rs[1].Valid {
		t.Fatalf("window 1: value %v invalid", rs[1].Value)
	}
	// Window 2: host 20 is gone but 21..39 are alive (merely unreachable
	// — H_U counts alive hosts regardless of reachability), so upper
	// stays 40; host 10 fails mid-window ⇒ H_C = {0..9}, lower = 10.
	if rs[2].Lower != 10 || rs[2].Upper != 40 {
		t.Fatalf("window 2 bounds [%v,%v], want [10,40]", rs[2].Lower, rs[2].Upper)
	}
	if rs[2].HU != 39 {
		t.Fatalf("window 2 |H_U| = %d, want 39 (only host 20 dead at start)", rs[2].HU)
	}
	if !rs[2].Valid {
		t.Fatalf("window 2: value %v invalid", rs[2].Value)
	}
}

// A leave+join timeline on the chain: the far end arrives late, a middle
// host serves two sessions. Populations grow as well as shrink, and the
// value tracks what is attached to h_q when each window's broadcast gets
// there.
func TestRunSimLeaveJoinTimeline(t *testing.T) {
	const n = 12
	g, values := chain(n)
	dHat := n + 1
	win := sim.Time(2 * dHat)
	p := &Plan{
		Query:   1,
		Spec:    protocol.Query{Kind: agg.Max, Hq: 0, DHat: dHat, Params: agg.Params{Vectors: 8, Bits: 32}},
		Windows: 4,
		Seed:    5,
		Static: churn.Timeline{
			{H: 11, T: win + 1, Kind: churn.Join},  // late joiner: absent for all of window 0
			{H: 6, T: 2 * win},                     // gone the instant window 2 opens…
			{H: 6, T: 3*win + 1, Kind: churn.Join}, // …and back one tick into window 3
		},
	}
	rs := runSim(t, p, g, values)
	want := []struct {
		hu    int
		value float64
	}{
		{11, 11}, // host 11 not there yet
		{12, 12}, // arrived at tick 1, long before the broadcast reaches it
		{11, 6},  // host 6 gone: 7..11 alive but cut off
		{12, 12}, // host 6 reborn at tick 1, the chain whole again
	}
	for k, w := range want {
		r := rs[k]
		if r.HU != w.hu || r.Value != w.value {
			t.Fatalf("window %d: |H_U|=%d value=%v, want %d/%v", k, r.HU, r.Value, w.hu, w.value)
		}
		if !r.Valid {
			t.Fatalf("window %d: %v outside [%v,%v]", k, r.Value, r.Lower, r.Upper)
		}
	}
	if rs[1].HU <= rs[0].HU || rs[2].HU >= rs[1].HU {
		t.Fatalf("|H_U| %d→%d→%d: want growth on the arrival, shrinkage on the departure",
			rs[0].HU, rs[1].HU, rs[2].HU)
	}
}

func TestRunSimCountWindowsValidWithinFactor(t *testing.T) {
	g, values, p := simFixture()
	p.Spec.Kind = agg.Count
	p.Static = churn.UniformRemoval(g.Len(), 80, p.Spec.Hq, 0, p.Spec.Deadline()*sim.Time(p.Windows),
		rand.New(rand.NewSource(4)))
	for _, r := range runSim(t, p, g, values) {
		if !r.Valid {
			t.Fatalf("window %d: count %v outside factor band [%v,%v]×%v",
				r.Window, r.Value, r.Lower, r.Upper, r.Slack)
		}
		if r.Stats.MessagesSent == 0 {
			t.Fatalf("window %d: no traffic", r.Window)
		}
	}
}

// TestSimAndEngineAgree runs one static plan through both executors: the
// event loop (RunSim) and a live chan runtime (Start). Membership changes
// sit on window boundaries, so what each window can see does not depend
// on how wall-clock hops interleave, and the answers must match window
// for window, bit for bit — the exact aggregates, and the FM estimates
// too, since both executors derive a host's coins from (window seed, host)
// alone — as must the bound sets, which both read off the same Plan.Bounds.
func TestSimAndEngineAgree(t *testing.T) {
	const hosts = 40
	g := topology.Generate(topology.Random, hosts, 7)
	// Distinct values with h_q in the middle, so the extremes live at hosts
	// that can come and go: the minimum's holder arrives late, the
	// maximum's leaves early and returns for the last window.
	values := make([]int64, hosts)
	for h := range values {
		values[h] = int64(100 + h)
	}
	values[0] = 120
	const lo, hi = graph.HostID(1), graph.HostID(hosts - 1)
	dHat := g.Diameter(nil) + 2
	w := sim.Time(2 * dHat)
	for _, kind := range []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg} {
		plan := func() *Plan {
			return &Plan{
				Query:   1,
				Spec:    protocol.Query{Kind: kind, Hq: 0, DHat: dHat, Params: agg.Params{Vectors: 8, Bits: 32}},
				Windows: 4,
				Seed:    7,
				Static: churn.Timeline{
					{H: lo, T: 2 * w, Kind: churn.Join},
					{H: hi, T: w},
					{H: hi, T: 3 * w, Kind: churn.Join},
				},
			}
		}
		simRs := runSim(t, plan(), g, values)
		engRs := runOnEngine(t, plan(), g, values)
		distinct := map[float64]bool{}
		for k := range simRs {
			s, e := simRs[k], engRs[k]
			if s.HC != e.HC || s.HU != e.HU {
				t.Fatalf("%v window %d: sim |H_C|,|H_U| = %d,%d, engine %d,%d", kind, k, s.HC, s.HU, e.HC, e.HU)
			}
			if s.Value != e.Value {
				t.Fatalf("%v window %d: sim answers %v, engine %v", kind, k, s.Value, e.Value)
			}
			if !s.Valid || !e.Valid {
				t.Fatalf("%v window %d: valid sim=%t engine=%t (value %v, bounds [%v,%v])",
					kind, k, s.Valid, e.Valid, s.Value, s.Lower, s.Upper)
			}
			distinct[s.Value] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("%v: every window answered %v; the timeline never moved the aggregate", kind, simRs[0].Value)
		}
	}
}
