package oracle_test

import (
	"testing"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
)

// deafTo drops every frame from one neighbor: with its twin on the other
// end, an edge that carries nothing.
type deafTo struct {
	sim.Handler
	from graph.HostID
}

func (d deafTo) Receive(ctx *sim.Context, m sim.Message) {
	if m.From != d.from {
		d.Handler.Receive(ctx, m)
	}
}

// TestMatchedCatchesACutEdge loses a fifth of H_C: two random graphs of 80
// and 20 hosts joined by one edge, every frame across it dropped, a c = 64
// WILDFIRE COUNT from the larger side. Nothing leaves the network, so the
// oracle puts all 100 hosts in H_C, and h_q's sketch lacks the bits of 20
// of them. On every seed the matched verdict passes the answer of the same
// run with the edge intact and fails the cut one; the FM slack judge, which
// accepts down to q(H_C)/1.39, passes 10 of the 12 cut answers.
func TestMatchedCatchesACutEdge(t *testing.T) {
	const big, small, seeds = 80, 20, 12
	slackPassed := 0
	for seed := int64(1); seed <= seeds; seed++ {
		g := graph.New(big + small)
		join := func(part *graph.Graph, off graph.HostID) {
			part.Edges(func(a, b graph.HostID) bool {
				g.AddEdge(a+off, b+off)
				return true
			})
		}
		join(topology.NewRandom(big, 5, seed), 0)
		join(topology.NewRandom(small, 5, seed), big)
		const x, y = big - 1, big // the cut edge
		g.AddEdge(x, y)
		g.SortAdjacency()
		values := make([]int64, g.Len())
		q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: g.Diameter(nil) + 2, Params: agg.Params{Vectors: 64, Bits: 32}}

		b := oracle.Compute(g, values, q.Hq, nil, q.Deadline(), q.Kind)
		if len(b.HC) != g.Len() {
			t.Fatalf("seed %d: |H_C| = %d, want all %d hosts", seed, len(b.HC), g.Len())
		}
		m := b.Matched(values, q.Params, seed)
		run := func(cut bool) float64 {
			w := protocol.NewWildfire(q)
			if err := w.Init(g); err != nil {
				t.Fatal(err)
			}
			nw := sim.NewNetwork(sim.Config{Graph: g, Seed: seed, Values: values})
			for h := graph.HostID(0); int(h) < g.Len(); h++ {
				hd := w.NewHost(h)
				switch {
				case cut && h == x:
					hd = deafTo{hd, y}
				case cut && h == y:
					hd = deafTo{hd, x}
				}
				nw.SetHandler(h, hd)
			}
			nw.Run(w.Deadline())
			v, ok := w.Result()
			if !ok {
				t.Fatalf("seed %d: no answer", seed)
			}
			return v
		}
		if v := run(false); !m.Valid(v) {
			t.Fatalf("seed %d: uncut count %.2f judged invalid against [%.2f, %.2f]", seed, v, m.LowerValue, m.UpperValue)
		}
		v := run(true)
		if m.Valid(v) {
			t.Errorf("seed %d: count %.2f without %d of H_C's hosts judged valid against [%.2f, %.2f]",
				seed, v, small, m.LowerValue, m.UpperValue)
		}
		if b.ValidFactor(v, oracle.FMSlack(q.Kind, q.Params.Vectors)) {
			slackPassed++
		}
	}
	t.Logf("the FM slack judge passed %d of %d", slackPassed, seeds)
}
