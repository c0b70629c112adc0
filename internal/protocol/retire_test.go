package protocol

import (
	"testing"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// TestWildfireGoldenFromRecycledHosts holds every golden row again, with
// each row's hosts taken from the pool a retired query filled: before the
// row runs, a query of its kind at other sketch dimensions (64×64) runs to
// the end on the same graph from another h_q, every one of its hosts
// retires, and so do the row's own fresh hosts, which are then minted
// anew. What the row sends and declares must not change.
func TestWildfireGoldenFromRecycledHosts(t *testing.T) {
	goldenScenarios(t, func(name string, w *Wildfire, nw *sim.Network) {
		g := nw.Graph()
		dirty := NewWildfire(Query{Kind: w.Query.Kind, Hq: 7, DHat: 10, Params: agg.Params{Vectors: 64, Bits: 64}})
		if _, _, err := Run(dirty, newNet(g, nil, 5)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for h := graph.HostID(0); int(h) < g.Len(); h++ {
			dirty.hosts[h].Retire()
			w.hosts[h].Retire()
		}
		if err := w.Install(nw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}

// TestWildfireRetire pins what a retired host leaves behind: the Wildfire
// declares nothing once h_q has retired, nor before a new h_q — likely
// the one just handed back, partial and all — has started, and a host
// retiring from a Wildfire that has since been initialized again — for
// another query — leaves the slot the new query's host holds alone.
func TestWildfireRetire(t *testing.T) {
	g, vals := fig5Network()
	w := NewWildfire(Query{Kind: agg.Max, Hq: 0, DHat: 3, Params: params()})
	if _, _, err := Run(w, newNet(g, vals, 1)); err != nil {
		t.Fatal(err)
	}
	for h := graph.HostID(0); int(h) < g.Len(); h++ {
		w.hosts[h].Retire()
	}
	if v, ok := w.Result(); ok {
		t.Fatalf("a retired query declared %v", v)
	}

	if err := w.Init(g); err != nil {
		t.Fatal(err)
	}
	old := w.NewHost(0).(*wfHost)
	if err := w.Init(g); err != nil {
		t.Fatal(err)
	}
	current := w.NewHost(0)
	if v, ok := w.Result(); ok {
		t.Fatalf("a query whose h_q has not started declared %v", v)
	}
	old.Retire()
	if w.hosts[0] != current {
		t.Fatal("retiring a host of an earlier Init cleared the current query's slot")
	}
	if old.w != nil {
		t.Fatal("a retired host still reaches its Wildfire")
	}
}
