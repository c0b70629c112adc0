package sim_test

import (
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/node"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
)

// The per-host coin stream is part of the fleet's wire-free contract:
// every process derives it from (shared seed, query id, host) alone, so
// its outputs may only change together with a note in CHANGES.md — a
// mixed-version fleet would toss different coins for the same host.
func TestCoinSourceGolden(t *testing.T) {
	want := []uint64{
		0x919b47a781d37922, 0xff5e5f1b2c87c3eb, 0xd472bde73bc0d7da, 0x5375f7248c8b165a,
	}
	src := sim.NewCoins(node.QuerySeed(23, 7), 5)
	for i, w := range want {
		if got := src.Uint64(); got != w {
			t.Errorf("output %d of (seed 23, query 7, host 5) = %#x, want %#x", i, got, w)
		}
	}
	// Int63 is the draw the sketches make: the next Uint64's top 63 bits.
	a, b := sim.NewCoins(1, 2), sim.NewCoins(1, 2)
	if got, want := a.Int63(), int64(b.Uint64()>>1); got != want {
		t.Errorf("Int63 = %#x, want Uint64>>1 = %#x", got, want)
	}
	// Neighbouring hosts and neighbouring queries get unrelated streams.
	if x, y := sim.NewCoins(1, 2).Uint64(), sim.NewCoins(1, 3).Uint64(); x == y {
		t.Errorf("hosts 2 and 3 share a first coin %#x", x)
	}
	if x, y := sim.NewCoins(node.QuerySeed(23, 7), 5).Uint64(), sim.NewCoins(node.QuerySeed(23, 8), 5).Uint64(); x == y {
		t.Errorf("queries 7 and 8 share host 5's first coin %#x", x)
	}
}

// The event-loop twin of node's TestActivationSketchIndependentOfSharding:
// a host's activation sketch on a sim.Network is the one the live engine
// freezes for the same (seed, host), and does not depend on the order the
// flood reaches the hosts around it.
func TestActivationSketchSameOnEventLoop(t *testing.T) {
	g := topology.NewRandom(30, 4, 23)
	values := make([]int64, g.Len())
	const hq = graph.HostID(12)
	q := protocol.Query{Kind: agg.Count, Hq: hq, DHat: 8, Params: agg.Params{Vectors: 64, Bits: 32}}
	seed := node.QuerySeed(23, 7)

	onLoop := func(tl churn.Timeline) *protocol.Wildfire {
		nw := sim.NewNetwork(sim.Config{Graph: g, Seed: seed, Values: values})
		tl.Apply(nw)
		w := protocol.NewWildfire(q)
		if _, _, err := protocol.Run(w, nw); err != nil {
			t.Fatal(err)
		}
		return w
	}
	// Taking two of hq's neighbors out for the first ticks sends the flood
	// around them: the hosts behind them activate later and in another
	// order, and the two rejoin to be activated last.
	ns := g.Neighbors(hq)
	straight := onLoop(nil)
	detour := onLoop(churn.Timeline{
		{H: ns[0], T: 0}, {H: ns[1], T: 0},
		{H: ns[0], T: 3, Kind: churn.Join}, {H: ns[1], T: 3, Kind: churn.Join},
	})

	const hop = 20 * time.Millisecond // generous: a late hop would cut the live flood short
	rt, err := node.New(node.Config{Graph: g, Values: values, Hop: hop, Transport: transport.NewChannel(g.Len(), hop/2)})
	if err != nil {
		t.Fatal(err)
	}
	live := protocol.NewWildfire(q)
	rt.SetQueryFactory(func(node.QueryID) (*node.QueryInstance, error) {
		return node.BuildInstance(rt, live, seed)
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if _, err := rt.StartQuery(7); err != nil {
		t.Fatal(err)
	}
	floor, settle, hardCap := rt.AwaitBracket(q.Deadline())
	if _, ok, err := rt.AwaitQueryResult(7, hq, floor, settle, hardCap); err != nil || !ok {
		t.Fatalf("live query declared nothing (ok=%t, err=%v)", ok, err)
	}

	for h := graph.HostID(0); int(h) < g.Len(); h++ {
		want := live.HostInitial(h)
		if want == nil {
			t.Fatalf("host %d never activated on the engine", h)
		}
		for name, w := range map[string]*protocol.Wildfire{"straight": straight, "detour": detour} {
			if got := w.HostInitial(h); got == nil || !got.Equal(want) {
				t.Errorf("host %d, %s flood: activation sketch differs from the engine's for one (seed, host)", h, name)
			}
		}
	}
}
