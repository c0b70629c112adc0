package sim_test

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
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
// builds for the same (seed, host). Each host in turn is h_q with its
// neighbors gone at tick 0, so nothing reaches it and its final partial is
// its activation sketch — on the event loop and on the engine alike.
func TestActivationSketchSameOnEventLoop(t *testing.T) {
	g := topology.NewRandom(30, 4, 23)
	values := make([]int64, g.Len())
	seed := node.QuerySeed(23, 7)
	query := func(hq graph.HostID) protocol.Query {
		return protocol.Query{Kind: agg.Count, Hq: hq, DHat: 8, Params: agg.Params{Vectors: 64, Bits: 32}}
	}
	isolate := func(hq graph.HostID) churn.Timeline {
		var tl churn.Timeline
		for _, n := range g.Neighbors(hq) {
			tl = append(tl, churn.Event{H: n, T: 0})
		}
		return tl
	}

	// Query id hq+1 isolates host hq on the engine.
	rt, err := node.New(node.Config{Graph: g, Values: values, Hop: 20 * time.Millisecond, Transport: transport.NewChannel(g.Len(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	live := make([]*protocol.Wildfire, g.Len())
	rt.SetQueryFactory(func(id node.QueryID) (*node.QueryInstance, error) {
		hq := graph.HostID(id - 1)
		live[hq] = protocol.NewWildfire(query(hq))
		inst, err := node.BuildInstance(rt, live[hq], seed)
		if err == nil {
			inst.Churn = isolate(hq)
		}
		return inst, err
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	var prev agg.Partial
	for hq := graph.HostID(0); int(hq) < g.Len(); hq++ {
		nw := sim.NewNetwork(sim.Config{Graph: g, Seed: seed, Values: values})
		isolate(hq).Apply(nw)
		loop := protocol.NewWildfire(query(hq))
		if _, _, err := protocol.Run(loop, nw); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.StartQuery(node.QueryID(hq) + 1); err != nil {
			t.Fatal(err)
		}
		var engine agg.Partial
		// Do queues behind hq's Start on hq's shard worker.
		if err := rt.Do(hq, func() {
			if p := live[hq].Partial(); p != nil {
				engine = p.Clone()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if engine == nil || engine.Result() == 0 {
			t.Fatalf("host %d did not activate with a non-empty sketch on the engine", hq)
		}
		if got := loop.Partial(); got == nil || !got.Equal(engine) {
			t.Errorf("host %d: activation sketch on the event loop differs from the engine's for one (seed, host)", hq)
		}
		if prev != nil && prev.Equal(engine) {
			t.Errorf("hosts %d and %d toss identical coins", hq-1, hq)
		}
		prev = engine
	}
}

// pcgRand is the coin derivation built by hand from math/rand/v2's PCG —
// seeded (seed, h), Int63 the top 63 bits of the next Uint64 — as a
// reference that no earlier draw can have touched.
type pcgRand struct{ *randv2.PCG }

func (p pcgRand) Int63() int64 { return int64(p.Uint64() >> 1) }
func (pcgRand) Seed(int64)     {}

// A reseeded stream draws exactly what a fresh (seed, h) stream draws: the
// same first 64 values, and a Read that starts from nothing buffered —
// whether it is the zero Coins a query's slice starts with, one NewCoins
// built, or one a query left drawn from, mid-Read, under another seed and
// host.
func TestCoinsReseedDrawsAsFresh(t *testing.T) {
	const seed, h = 23, 5
	draws := func(r *rand.Rand) ([]uint64, [11]byte) {
		var vs []uint64
		for range 64 {
			vs = append(vs, r.Uint64())
		}
		var buf [11]byte
		r.Read(buf[:])
		return vs, buf
	}
	wantVs, wantBuf := draws(rand.New(pcgRand{randv2.NewPCG(seed, h)}))
	check := func(what string, c *sim.Coins) {
		t.Helper()
		if vs, buf := draws(c.Rand); !slices.Equal(vs, wantVs) || buf != wantBuf {
			t.Fatalf("%s: the (seed %d, host %d) stream drew other values than a fresh one", what, seed, h)
		}
	}
	check("NewCoins", sim.NewCoins(seed, h))
	var c sim.Coins
	c.Reseed(seed, h)
	check("a zero Coins reseeded", &c)
	for round := range 20 {
		// Dirty the stream the way a query leaves one: drawn from under
		// another (seed, h), and a Read that leaves bytes buffered.
		c.Reseed(int64(round), graph.HostID(round%7))
		c.Int63()
		c.Read(make([]byte, 5))
		c.Reseed(seed, h)
		check(fmt.Sprintf("round %d, reseeded", round), &c)
	}
}
