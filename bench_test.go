// Benchmarks: one per table/figure of the paper's evaluation (§6), plus
// ablations for the design choices called out in DESIGN.md. Each figure
// bench runs its experiment at benchmark scale through the same
// internal/experiment runner that cmd/validitybench uses at full scale,
// and reports the paper's headline metric as a custom unit where one
// exists (e.g. the WILDFIRE/SPANNINGTREE message ratio for Fig. 10).
//
//	go test -bench=. -benchmem
package validity

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"validity/internal/agg"
	"validity/internal/experiment"
	"validity/internal/fm"
	"validity/internal/graph"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// benchOptions shrinks the paper's workloads to benchmark-friendly sizes
// while preserving every qualitative shape.
func benchOptions() experiment.Options {
	return experiment.Options{Scale: 0.02, Trials: 3, Seed: 1}
}

func runFigure(b *testing.B, id string) *experiment.Table {
	b.Helper()
	run, err := experiment.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	var table *experiment.Table
	for i := 0; i < b.N; i++ {
		table, err = run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	return table
}

func BenchmarkFig6AccuracyCountSum(b *testing.B) { runFigure(b, "fig6") }
func BenchmarkFig7CountGnutella(b *testing.B)    { runFigure(b, "fig7") }
func BenchmarkFig8SumGnutella(b *testing.B)      { runFigure(b, "fig8") }
func BenchmarkFig9CountGrid(b *testing.B)        { runFigure(b, "fig9") }
func BenchmarkFig12Computation(b *testing.B)     { runFigure(b, "fig12") }
func BenchmarkFig13aTimeCost(b *testing.B)       { runFigure(b, "fig13a") }
func BenchmarkFig13bMessageProfile(b *testing.B) { runFigure(b, "fig13b") }
func BenchmarkCaptureRecapture(b *testing.B)     { runFigure(b, "capture") }
func BenchmarkRingEstimator(b *testing.B)        { runFigure(b, "ring") }

// BenchmarkFig10CommRandom reports the Fig. 10 headline as a custom
// metric: WILDFIRE's message premium over SPANNINGTREE on Random.
func BenchmarkFig10CommRandom(b *testing.B) {
	table := runFigure(b, "fig10")
	// Last row, columns: |H|, wf D+2, wf D+5, wf D+10, st, dag.
	row := table.Rows[len(table.Rows)-1]
	wf, _ := strconv.ParseFloat(row[1], 64)
	st, _ := strconv.ParseFloat(row[4], 64)
	if st > 0 {
		b.ReportMetric(wf/st, "wildfire/st-msgs")
	}
}

// BenchmarkFig11CommGrid reports the grid (wireless) premium and the
// min-query discount.
func BenchmarkFig11CommGrid(b *testing.B) {
	table := runFigure(b, "fig11")
	row := table.Rows[len(table.Rows)-1]
	count, _ := strconv.ParseFloat(row[1], 64)
	min, _ := strconv.ParseFloat(row[3], 64)
	st, _ := strconv.ParseFloat(row[4], 64)
	if st > 0 {
		b.ReportMetric(count/st, "wf-count/st-msgs")
		b.ReportMetric(min/st, "wf-min/st-msgs")
	}
}

// --- Ablation benches (DESIGN.md §4) ---

func benchTopology(n int) (*topologyBundle, error) {
	g := topology.NewRandom(n, 5, 1)
	return &topologyBundle{
		g:      g,
		values: zipfval.Default(1).Values(g.Len()),
		dHat:   g.DiameterSampled(2, nil) + 2,
	}, nil
}

type topologyBundle struct {
	g      *graph.Graph
	values []int64
	dHat   int
}

// BenchmarkAblationWildfireDeadline compares WILDFIRE with and without
// the §5.3 early-deadline optimization ((2D̂−l+1)δ per-host cutoff).
func BenchmarkAblationWildfireDeadline(b *testing.B) {
	bundle, err := benchTopology(1000)
	if err != nil {
		b.Fatal(err)
	}
	for _, early := range []bool{true, false} {
		name := "early"
		if !early {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: bundle.dHat, Params: agg.DefaultParams()}
				w := protocol.NewWildfire(q)
				w.EarlyDeadline = early
				nw := sim.NewNetwork(sim.Config{Graph: bundle.g, Seed: 1, Values: bundle.values})
				_, st, err := protocol.Run(w, nw)
				if err != nil {
					b.Fatal(err)
				}
				msgs = st.MessagesSent
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkAblationWirelessMedium compares grid accounting under the two
// media (§5.3: wireless reduces worst-case traffic from 2D̂|E| to 2D̂|H|).
func BenchmarkAblationWirelessMedium(b *testing.B) {
	g := topology.NewGrid(32, 32)
	values := zipfval.Default(1).Values(g.Len())
	dHat := g.DiameterSampled(2, nil) + 2
	for _, medium := range []sim.Medium{sim.MediumPointToPoint, sim.MediumWireless} {
		b.Run(medium.String(), func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: agg.DefaultParams()}
				nw := sim.NewNetwork(sim.Config{Graph: g, Medium: medium, Seed: 1, Values: values})
				_, st, err := protocol.Run(protocol.NewWildfire(q), nw)
				if err != nil {
					b.Fatal(err)
				}
				msgs = st.MessagesSent
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkAblationFMSumFastPath compares literal repeated insertion
// against the per-bit Bernoulli fast path for large sum addends.
func BenchmarkAblationFMSumFastPath(b *testing.B) {
	const addend = 1 << 14
	b.Run("literal", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			s := fm.NewSketch(8, 32)
			for k := 0; k < addend; k++ {
				s.AddDistinct(rng)
			}
		}
	})
	b.Run("fastpath", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			s := fm.NewSketch(8, 32)
			s.AddN(rng, addend)
		}
	})
}

// BenchmarkGossipBaseline measures the §2.2 epidemic baseline's cost to
// reach convergence on the same network the protocol comparison uses.
func BenchmarkGossipBaseline(b *testing.B) {
	g := topology.NewRandom(2000, 5, 1)
	values := zipfval.Default(1).Values(g.Len())
	dHat := g.DiameterSampled(2, nil) + 2
	var msgs int64
	for i := 0; i < b.N; i++ {
		q := protocol.Query{Kind: agg.Avg, Hq: 0, DHat: dHat, Params: agg.DefaultParams()}
		nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1, Values: values})
		_, st, err := protocol.Run(protocol.NewGossip(q, 8*dHat), nw)
		if err != nil {
			b.Fatal(err)
		}
		msgs = st.MessagesSent
	}
	b.ReportMetric(float64(msgs), "msgs")
}

// BenchmarkProtocolsMessageCost compares all protocols' end-to-end run
// cost on the same 2000-host random network (count query).
func BenchmarkProtocolsMessageCost(b *testing.B) {
	g := topology.NewRandom(2000, 5, 1)
	values := zipfval.Default(1).Values(g.Len())
	dHat := g.DiameterSampled(2, nil) + 2
	specs := []struct {
		name  string
		build func(protocol.Query) protocol.Protocol
	}{
		{"wildfire", func(q protocol.Query) protocol.Protocol { return protocol.NewWildfire(q) }},
		{"spanningtree", func(q protocol.Query) protocol.Protocol { return protocol.NewSpanningTree(q) }},
		{"dag2", func(q protocol.Query) protocol.Protocol { return protocol.NewDAG(q, 2) }},
		{"allreport", func(q protocol.Query) protocol.Protocol { return protocol.NewAllReport(q) }},
		{"randomized", func(q protocol.Query) protocol.Protocol { return protocol.NewRandomizedReport(q, 0.1) }},
	}
	for _, spec := range specs {
		b.Run(spec.name, func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: agg.DefaultParams()}
				nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1, Values: values})
				_, st, err := protocol.Run(spec.build(q), nw)
				if err != nil {
					b.Fatal(err)
				}
				msgs = st.MessagesSent
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkPublicAPIQuery measures the end-to-end public API path a
// downstream user exercises.
func BenchmarkPublicAPIQuery(b *testing.B) {
	net, err := NewNetwork(NetworkConfig{Topology: Gnutella, Hosts: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Query(QueryConfig{Aggregate: Count, Protocol: Wildfire, Failures: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = strings.TrimSpace // keep strings imported for future table parsing
