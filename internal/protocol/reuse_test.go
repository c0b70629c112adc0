package protocol

import (
	"testing"

	"validity/internal/agg"
	"validity/internal/sim"
)

// TestWildfireGoldenFromRecycledHosts holds every golden row again, with
// each row's hosts taken over from a retired query: before the row runs, a
// query of its kind at other sketch dimensions (64×64) runs to the end on
// the same graph from another h_q, and the row's Wildfire reuses its hosts
// and is installed anew. What the row sends and declares must not change.
func TestWildfireGoldenFromRecycledHosts(t *testing.T) {
	goldenScenarios(t, func(name string, w *Wildfire, nw *sim.Network) {
		dirty := NewWildfire(Query{Kind: w.Query.Kind, Hq: 7, DHat: 10, Params: agg.Params{Vectors: 64, Bits: 64}})
		if _, _, err := Run(dirty, newNet(nw.Graph(), nil, 5)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		storage := &dirty.hosts[0]
		w.Reuse(dirty)
		if err := w.Install(nw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if &w.hosts[0] != storage {
			t.Fatalf("%s: the row runs on fresh hosts, not the retired query's", name)
		}
	})
}

// TestWildfireReuse pins what Reuse hands over and what it leaves behind:
// the hosts move, partials and all, and the Wildfire they left declares
// nothing from then on — neither before the new h_q has started, when the
// slot still holds the old h_q's active state, nor once the new query has
// answered. Nor does the new query declare the old one's state meanwhile.
// A Wildfire reusing itself keeps what it has.
func TestWildfireReuse(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Max, Hq: 0, DHat: 3, Params: params()}
	old := NewWildfire(q)
	if _, _, err := Run(old, newNet(g, vals, 1)); err != nil {
		t.Fatal(err)
	}
	want, _ := old.Result()
	storage := &old.hosts[0]

	w := NewWildfire(q)
	w.Reuse(old)
	if v, ok := old.Result(); ok {
		t.Fatalf("a Wildfire whose hosts were taken over declared %v", v)
	}
	if err := w.Init(g); err != nil {
		t.Fatal(err)
	}
	if &w.hosts[0] != storage {
		t.Fatal("Init built fresh hosts over the ones Reuse handed it")
	}
	if v, ok := w.Result(); ok {
		t.Fatalf("a query whose h_q is not yet built declared %v", v)
	}
	w.NewHost(0)
	if v, ok := w.Result(); ok {
		t.Fatalf("a query whose h_q has not started declared %v", v)
	}
	if v, _, err := Run(w, newNet(g, vals, 1)); err != nil || v != want {
		t.Fatalf("on reused hosts the query declared %v (%v), want %v", v, err, want)
	}
	if v, ok := old.Result(); ok {
		t.Fatalf("the Wildfire the hosts left declared %v, the later query's answer", v)
	}

	w.Reuse(w)
	if v, ok := w.Result(); !ok || v != want {
		t.Fatalf("a Wildfire reusing itself lost its answer: %v, %t", v, ok)
	}
}
