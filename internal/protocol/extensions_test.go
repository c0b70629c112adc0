package protocol

import (
	"math"
	"testing"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

func TestDiameterProbeFindsEccentricity(t *testing.T) {
	// Path of 9 hosts: eccentricity of host 0 is 8.
	g := graph.New(9)
	for i := 0; i < 8; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID(i+1))
	}
	d := NewDiameterProbe(0)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1})
	v, _, err := Run(d, nw)
	if err != nil {
		t.Fatal(err)
	}
	if v != 8 {
		t.Fatalf("probe eccentricity = %v, want 8", v)
	}
	if rec, ok := d.RecommendedDHat(); !ok || rec != 10 {
		t.Fatalf("recommended D̂ = %d/%v, want 10", rec, ok)
	}
}

func TestDiameterProbeOnTopologies(t *testing.T) {
	for _, topo := range []topology.Kind{topology.Random, topology.Gnutella} {
		g := topology.Generate(topo, 500, 1)
		truth := eccentricity(g, nil)
		d := NewDiameterProbe(0)
		nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1})
		v, _, err := Run(d, nw)
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		if int(v) != truth {
			t.Fatalf("%v: probe = %v, true eccentricity = %d", topo, v, truth)
		}
	}
}

func TestDiameterProbeUnderChurnStillValid(t *testing.T) {
	// Under churn the broadcast may detour around failed hosts, so the
	// probe can exceed the failure-free eccentricity — but never the
	// eccentricity of the survivor subgraph, which bounds every detour.
	g := topology.NewGrid(10, 10)
	alive := func(h graph.HostID) bool { return h != 55 && h != 56 }
	survivorEcc := eccentricity(g, alive)
	d := NewDiameterProbe(0)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1})
	nw.FailAt(graph.HostID(55), 2)
	nw.FailAt(graph.HostID(56), 2)
	v, _, err := Run(d, nw)
	if err != nil {
		t.Fatal(err)
	}
	if int(v) > survivorEcc {
		t.Fatalf("probe %v exceeds survivor eccentricity %d", v, survivorEcc)
	}
	if v < 1 {
		t.Fatalf("probe %v degenerate", v)
	}
}

func TestDiameterProbeResultBeforeRun(t *testing.T) {
	d := NewDiameterProbe(0)
	if _, ok := d.Result(); ok {
		t.Fatal("result before install should not be ok")
	}
	if _, ok := d.RecommendedDHat(); ok {
		t.Fatal("recommendation before install should not be ok")
	}
}

func TestGossipAvgConverges(t *testing.T) {
	g := topology.NewRandom(400, 6, 1)
	vals := zipfval.Default(1).Values(g.Len())
	truth := agg.Exact(agg.Avg, vals)
	q := Query{Kind: agg.Avg, Hq: 0, DHat: 4, Params: params()}
	gs := NewGossip(q, 60)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1, Values: vals})
	v, _, err := Run(gs, nw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v/truth-1) > 0.05 {
		t.Fatalf("gossip avg = %v, truth %v (>5%% off after 60 rounds)", v, truth)
	}
	// Every host converges, not just h_q — gossip's defining property.
	for _, h := range []graph.HostID{1, 100, 399} {
		hv, ok := gs.HostEstimate(h)
		if !ok {
			t.Fatalf("host %d has no estimate", h)
		}
		if math.Abs(hv/truth-1) > 0.10 {
			t.Fatalf("host %d estimate %v far from %v", h, hv, truth)
		}
	}
}

func TestGossipCountConverges(t *testing.T) {
	g := topology.NewRandom(300, 6, 2)
	vals := make([]int64, g.Len())
	q := Query{Kind: agg.Count, Hq: 0, DHat: 4, Params: params()}
	gs := NewGossip(q, 80)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 2, Values: vals})
	v, _, err := Run(gs, nw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v/300-1) > 0.05 {
		t.Fatalf("gossip count = %v, want ≈ 300", v)
	}
}

func TestGossipSumConverges(t *testing.T) {
	g := topology.NewRandom(300, 6, 3)
	vals := zipfval.Default(3).Values(g.Len())
	truth := agg.Exact(agg.Sum, vals)
	q := Query{Kind: agg.Sum, Hq: 0, DHat: 4, Params: params()}
	gs := NewGossip(q, 80)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 3, Values: vals})
	v, _, err := Run(gs, nw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v/truth-1) > 0.05 {
		t.Fatalf("gossip sum = %v, truth %v", v, truth)
	}
}

func TestGossipRejectsMinMaxAndBadRounds(t *testing.T) {
	g := topology.NewRandom(50, 5, 1)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1})
	q := Query{Kind: agg.Min, Hq: 0, DHat: 4, Params: params()}
	if err := NewGossip(q, 10).Install(nw); err == nil {
		t.Fatal("gossip accepted min")
	}
	q.Kind = agg.Avg
	if err := NewGossip(q, 0).Install(nw); err == nil {
		t.Fatal("gossip accepted zero rounds")
	}
}

// §2.2's point, demonstrated: under churn, gossip loses mass with failed
// hosts and its count can drift without any bound the user could check —
// eventual consistency only. WILDFIRE under the same churn stays within
// the (checkable) oracle band at sketch level. We assert the qualitative
// difference: gossip's error grows with churn while its own state gives
// no indication.
func TestGossipLosesMassUnderChurn(t *testing.T) {
	g := topology.NewRandom(400, 6, 4)
	vals := make([]int64, g.Len())
	q := Query{Kind: agg.Count, Hq: 0, DHat: 4, Params: params()}

	run := func(failures int) float64 {
		gs := NewGossip(q, 80)
		nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 4, Values: vals})
		for i := 0; i < failures; i++ {
			nw.FailAt(graph.HostID(i+1), sim.Time(5+i%40))
		}
		v, _, err := Run(gs, nw)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	clean := run(0)
	churned := run(100)
	if math.Abs(clean/400-1) > 0.05 {
		t.Fatalf("failure-free gossip count %v off", clean)
	}
	// With 100 hosts failing mid-run, surviving mass is distorted; the
	// estimate must deviate noticeably more than the clean run.
	if math.Abs(churned-300) < 1 && math.Abs(clean-400) < 1 {
		t.Skip("gossip landed exactly on the post-churn count; acceptable but unusual")
	}
	if math.Abs(churned/clean-1) < 0.01 {
		t.Fatalf("churned gossip (%v) indistinguishable from clean (%v); expected drift", churned, clean)
	}
}

func TestGossipDeadlineAndName(t *testing.T) {
	q := Query{Kind: agg.Avg, Hq: 0, DHat: 4, Params: params()}
	gs := NewGossip(q, 25)
	if gs.Deadline() != 26 || gs.Name() != "gossip" {
		t.Fatalf("deadline=%d name=%q", gs.Deadline(), gs.Name())
	}
	if _, ok := gs.Result(); ok {
		t.Fatal("result before run should not be ok")
	}
}

func TestWildfireValueFn(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Max, Hq: 0, DHat: 3, Params: params()}
	w := NewWildfire(q)
	w.ValueFn = func(h graph.HostID, dist int) int64 { return int64(h) * 100 }
	v, _, err := Run(w, sim.NewNetwork(sim.Config{Graph: g, Seed: 1, Values: vals}))
	if err != nil {
		t.Fatal(err)
	}
	if v != 300 {
		t.Fatalf("ValueFn max = %v, want 300 (host 3 × 100)", v)
	}
}

// eccentricity is host 0's: its largest finite BFS distance among alive
// hosts.
func eccentricity(g *graph.Graph, alive graph.Alive) int {
	ecc := 0
	for _, d := range g.BFS(0, alive) {
		ecc = max(ecc, int(d))
	}
	return ecc
}
