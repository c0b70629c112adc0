package protocol

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// baselineGolden holds the four §4 baselines' observable behaviour on the
// deterministic event loop — declared result and the three §6.3 costs —
// for every aggregate, without churn and under §6.2 uniform removal, on a
// random and a power-law graph. ALLREPORT and RANDOMIZEDREPORT appear in no
// figure, so nothing else pins them. The test only compares: a change that
// moves a row must regenerate the file by hand and name the rows it moved.
const baselineGolden = "testdata/baselines.golden"

func baselineRows(t *testing.T) []byte {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", topology.NewRandom(250, 5, 31)},
		{"powerlaw", topology.NewPowerLaw(250, 37)},
	}
	protocols := []func(Query) Protocol{
		func(q Query) Protocol { return NewSpanningTree(q) },
		func(q Query) Protocol { return NewDAG(q, 2) },
		func(q Query) Protocol { return NewDAG(q, 3) },
		func(q Query) Protocol { return NewAllReport(q) },
		func(q Query) Protocol { return NewRandomizedReport(q, 0.3) },
	}
	var out bytes.Buffer
	for gi, gr := range graphs {
		vals := zipfval.Default(int64(41 + gi)).Values(gr.g.Len())
		dHat := gr.g.Diameter(nil) + 2
		for _, removed := range []int{0, 30} {
			for _, kind := range []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg} {
				for _, build := range protocols {
					q := Query{Kind: kind, Hq: 4, DHat: dHat, Params: agg.Params{Vectors: 16, Bits: 32}}
					nw := sim.NewNetwork(sim.Config{Graph: gr.g, Seed: 53, Values: vals})
					rng := rand.New(rand.NewSource(int64(59 + removed)))
					churn.UniformRemoval(gr.g.Len(), removed, q.Hq, 0, q.Deadline(), rng).Apply(nw)
					p := build(q)
					v, st, err := Run(p, nw)
					if err != nil {
						t.Fatalf("%s %v %s: %v", gr.name, kind, p.Name(), err)
					}
					fmt.Fprintf(&out, "%s removed=%d %v %s result=%.9g sent=%d maxproc=%d time=%d\n",
						gr.name, removed, kind, p.Name(), v, st.MessagesSent, st.MaxComputation(), st.TimeCost)
				}
			}
		}
	}
	return out.Bytes()
}

func TestBaselineGolden(t *testing.T) {
	got := baselineRows(t)
	want, err := os.ReadFile(baselineGolden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d rows, golden has %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
}
