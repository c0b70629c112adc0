package protocol

import (
	"math/rand"
	"testing"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/fm"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// runUnderChurn executes protocol builder on a topology with R uniform
// removals and returns the result, the oracle bounds and the protocol.
func runUnderChurn(t *testing.T, g *graph.Graph, kind agg.Kind, r int, seed int64,
	build func(Query) Protocol) (float64, oracle.Bounds, Protocol) {
	t.Helper()
	vals := zipfval.Default(seed).Values(g.Len())
	dHat := g.DiameterSampled(2, nil) + 2
	q := Query{Kind: kind, Hq: 0, DHat: dHat, Params: agg.Params{Vectors: 16, Bits: 32}}
	sched := churn.UniformRemoval(g.Len(), r, q.Hq, 0, q.Deadline(), rand.New(rand.NewSource(seed)))
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: seed, Values: vals})
	sched.Apply(nw)
	p := build(q)
	v, _, err := Run(p, nw)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	b := oracle.Compute(g, vals, q.Hq, sched, q.Deadline(), kind)
	return v, b, p
}

// Theorem 5.1: WILDFIRE guarantees Single-Site Validity for min and max —
// exactly, since scalar combine is lossless. Check across topologies,
// churn levels and seeds.
func TestWildfireMinMaxValidityUnderChurn(t *testing.T) {
	topos := []*graph.Graph{
		topology.NewRandom(300, 5, 1),
		topology.NewPowerLaw(300, 2),
		topology.NewGrid(17, 17),
		topology.NewGnutella(300, 3),
	}
	for ti, g := range topos {
		for _, r := range []int{0, 30, 90} {
			for seed := int64(0); seed < 3; seed++ {
				for _, kind := range []agg.Kind{agg.Min, agg.Max} {
					v, b, _ := runUnderChurn(t, g, kind, r, seed+100*int64(ti),
						func(q Query) Protocol { return NewWildfire(q) })
					if !b.Valid(v) {
						t.Fatalf("topo %d r=%d seed=%d: wildfire %v=%v outside oracle [%v,%v]",
							ti, r, seed, kind, v, b.LowerValue, b.UpperValue)
					}
				}
			}
		}
	}
}

// Theorem 5.3 sketch-level check: h_q's final count sketch must cover the
// OR of the own contributions of every host in H_C, and must itself be
// covered by the OR over all hosts that ever activated (⊆ H_U). This is
// the exact guarantee, independent of FM estimation error. A host's own
// contribution is the partial its activation builds from its value and
// the first draw of its coin stream, sim.NewCoins(seed, h), so the test
// rebuilds it rather than asking the host to keep a copy; were the rebuild
// wrong, the upper bound would catch bits from nowhere.
func TestWildfireCountSketchLevelValidity(t *testing.T) {
	g := topology.NewGnutella(400, 4)
	for _, r := range []int{0, 40, 120} {
		for seed := int64(0); seed < 3; seed++ {
			_, b, p := runUnderChurn(t, g, agg.Count, r, seed,
				func(q Query) Protocol { return NewWildfire(q) })
			w := p.(*Wildfire)
			final, avgCount := w.Partial().Sketches()
			if final == nil || avgCount != nil {
				t.Fatal("count partial should carry one sketch")
			}
			vals := zipfval.Default(seed).Values(g.Len())
			own := func(h graph.HostID) *fm.Sketch {
				sk, _ := agg.NewPartial(agg.Count, vals[h], w.Query.Params, sim.NewCoins(seed, h).Rand).Sketches()
				return sk
			}
			activated := func(h graph.HostID) bool { return w.hosts[h].active }
			// Lower bound: every H_C host's own contribution is covered.
			orHC := fm.NewSketch(16, 32)
			for _, h := range b.HC {
				if !activated(h) {
					t.Fatalf("r=%d seed=%d: H_C host %d never activated", r, seed, h)
				}
				orHC.Or(own(h))
			}
			if !final.Covers(orHC) {
				t.Fatalf("r=%d seed=%d: final sketch misses H_C contributions", r, seed)
			}
			// Upper bound: nothing outside the union of activated hosts.
			orAll := fm.NewSketch(16, 32)
			for h := graph.HostID(0); int(h) < g.Len(); h++ {
				if activated(h) {
					orAll.Or(own(h))
				}
			}
			if !orAll.Covers(final) {
				t.Fatalf("r=%d seed=%d: final sketch contains bits from nowhere", r, seed)
			}
		}
	}
}

// The flip side (§6.5): under heavy churn SPANNINGTREE falls below the
// oracle's lower bound while WILDFIRE does not. Statistically a single
// seed could be lucky, so assert over several seeds that ST violates at
// least once on a deep topology and WILDFIRE never does (value-level with
// exact max).
func TestSpanningTreeViolatesValidityUnderChurn(t *testing.T) {
	g := topology.NewGrid(20, 20) // deep trees: most failure-sensitive (§6.5)
	stViolated := false
	for seed := int64(0); seed < 6; seed++ {
		v, b, _ := runUnderChurn(t, g, agg.Max, 80, seed,
			func(q Query) Protocol { return NewSpanningTree(q) })
		if !b.Valid(v) {
			stViolated = true
		}
		vw, bw, _ := runUnderChurn(t, g, agg.Max, 80, seed,
			func(q Query) Protocol { return NewWildfire(q) })
		if !bw.Valid(vw) {
			t.Fatalf("seed %d: wildfire max %v outside oracle [%v,%v]",
				seed, vw, bw.LowerValue, bw.UpperValue)
		}
	}
	if !stViolated {
		t.Fatal("spanning tree never violated validity under 20% churn on a grid (suspicious)")
	}
}

// WILDFIRE's count stays within the bounds its hosts' own coins give while
// the best-effort protocols' exact counts dip below the lower bound.
func TestCountValidityComparisonUnderChurn(t *testing.T) {
	g := topology.NewGrid(20, 20)
	const r = 60
	var stBelow int
	for seed := int64(0); seed < 5; seed++ {
		vst, b, _ := runUnderChurn(t, g, agg.Count, r, seed,
			func(q Query) Protocol { return NewSpanningTree(q) })
		if vst < b.LowerValue {
			stBelow++
		}
		vwf, bw, _ := runUnderChurn(t, g, agg.Count, r, seed,
			func(q Query) Protocol { return NewWildfire(q) })
		m := bw.Matched(zipfval.Default(seed).Values(g.Len()), agg.Params{Vectors: 16, Bits: 32}, seed)
		if !m.Valid(vwf) {
			t.Fatalf("seed %d: wildfire count %v outside its matched bounds [%v,%v]",
				seed, vwf, m.LowerValue, m.UpperValue)
		}
	}
	if stBelow == 0 {
		t.Fatal("spanning tree count never fell below H_C bound under churn")
	}
}

// DAG(k=3) should lose less than SPANNINGTREE on average under churn.
func TestDAGBeatsSpanningTreeOnAverage(t *testing.T) {
	g := topology.NewGrid(16, 16)
	var stSum, dagSum float64
	const trials = 6
	for seed := int64(0); seed < trials; seed++ {
		vst, _, _ := runUnderChurn(t, g, agg.Count, 40, seed,
			func(q Query) Protocol { return NewSpanningTree(q) })
		vdag, _, _ := runUnderChurn(t, g, agg.Count, 40, seed,
			func(q Query) Protocol { return NewDAG(q, 3) })
		stSum += vst
		dagSum += vdag
	}
	// DAG uses FM estimates; compare orders of magnitude.
	if dagSum < stSum*0.8 {
		t.Fatalf("dag mean count (%.0f) noticeably below spanning tree (%.0f)",
			dagSum/trials, stSum/trials)
	}
}

// ALLREPORT satisfies Single-Site Validity in the failure-free case on
// every topology (Theorem 4.3).
func TestAllReportValidityNoChurn(t *testing.T) {
	for ti, g := range []*graph.Graph{
		topology.NewRandom(200, 5, 1),
		topology.NewGrid(14, 14),
	} {
		for _, kind := range []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum} {
			v, b, _ := runUnderChurn(t, g, kind, 0, int64(ti),
				func(q Query) Protocol { return NewAllReport(q) })
			if !b.Valid(v) {
				t.Fatalf("topo %d: allreport %v=%v outside [%v,%v]",
					ti, kind, v, b.LowerValue, b.UpperValue)
			}
		}
	}
}

// Fig. 10/11 shape: WILDFIRE pays a multiple of SPANNINGTREE's
// communication cost for count queries (the paper reports 4–5×).
func TestWildfirePriceOfValidity(t *testing.T) {
	g := topology.NewRandom(800, 5, 9)
	vals := zipfval.Default(9).Values(g.Len())
	dHat := g.DiameterSampled(2, nil) + 2
	q := Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: agg.Params{Vectors: 8, Bits: 32}}
	run := func(p Protocol) int64 {
		nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 9, Values: vals})
		if _, st, err := Run(p, nw); err != nil {
			t.Fatal(err)
		} else {
			return st.MessagesSent
		}
		return 0
	}
	wf := run(NewWildfire(q))
	st := run(NewSpanningTree(q))
	ratio := float64(wf) / float64(st)
	if ratio < 1.5 {
		t.Fatalf("wildfire/spanningtree message ratio = %.2f; expected a clear premium", ratio)
	}
	if ratio > 20 {
		t.Fatalf("wildfire/spanningtree message ratio = %.2f; expected same order as paper's ≈4-5×", ratio)
	}
}

// TestTreeBaselinesValidOnPathAtTightDHat runs the tree baselines on a
// static path with h_q at one end and D̂ = D, the least legal estimate.
// The host at depth D̂ activates at tick D̂, which is its own report tick
// 2D̂ − D̂; a report set for a tick already passed would reach its parent
// after the parent reported, and the farthest host would be lost. Absent
// failures SPANNINGTREE is valid (§4), exactly; DAG is judged against the
// bounds its hosts' own coins imply (oracle.Bounds.Matched).
func TestTreeBaselinesValidOnPathAtTightDHat(t *testing.T) {
	for _, n := range []int{3, 4, 6} {
		g := graph.New(n)
		vals := make([]int64, n)
		for h := range vals {
			vals[h] = int64(10 + h)
			if h > 0 {
				g.AddEdge(graph.HostID(h-1), graph.HostID(h))
			}
		}
		g.SortAdjacency()
		protos := []func(Query) Protocol{
			func(q Query) Protocol { return NewSpanningTree(q) },
			func(q Query) Protocol { return NewDAG(q, 2) },
			func(q Query) Protocol { return NewDAG(q, 3) },
		}
		for _, build := range protos {
			for _, kind := range []agg.Kind{agg.Min, agg.Max, agg.Count} {
				q := Query{Kind: kind, Hq: 0, DHat: n - 1, Params: params()}
				p := build(q)
				const seed = 7
				v, _, err := Run(p, newNet(g, vals, seed))
				if err != nil {
					t.Fatal(err)
				}
				b := oracle.Compute(g, vals, q.Hq, nil, q.Deadline(), kind)
				if _, exact := p.(*SpanningTree); !exact {
					b = b.Matched(vals, q.Params, seed)
				}
				if !b.Valid(v) {
					t.Errorf("path of %d, %s %v = %v, want inside [%v, %v]",
						n, p.Name(), kind, v, b.LowerValue, b.UpperValue)
				}
			}
		}
	}
}
