// Package experiment regenerates every table and figure of the paper's
// evaluation (§6). Each FigN function runs the corresponding experiment
// and returns a Table whose rows are the series the paper plots; the
// cmd/validitybench binary renders them, and bench_test.go at the
// repository root wires each one to a testing.B benchmark.
//
// Experiments accept an Options.Scale factor so the same code drives both
// quick benchmark-sized runs and full paper-sized runs (|H| = 39,046
// Gnutella, 40K synthetic, 100×100 grids).
package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// Options tunes an experiment run.
type Options struct {
	// Scale multiplies the paper's workload sizes; 1.0 reproduces the
	// paper, smaller values shrink networks and trial counts
	// proportionally (sizes are clamped to sane minimums).
	Scale float64
	// Trials overrides the per-point repetition count (paper: 10).
	Trials int
	// Seed drives all randomness.
	Seed int64
	// Progress, when non-nil, receives one line per completed data point.
	Progress io.Writer
}

// Defaults fills unset fields.
func (o Options) defaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Trials <= 0 {
		o.Trials = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// scaled returns max(lo, round(v·scale)).
func scaled(v int, scale float64, lo int) int {
	n := int(math.Round(float64(v) * scale))
	if n < lo {
		n = lo
	}
	return n
}

// Table is a rendered experiment: the rows the paper's figure plots.
type Table struct {
	ID      string // e.g. "fig7"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV emits the table as CSV (header + rows) for external plotting
// tools; notes become trailing comment lines.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// summary is a mean with a 95% confidence interval over trials.
type summary struct {
	Mean float64
	CI   float64
	N    int
}

func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return summary{Mean: mean, N: 1}
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	// Normal approximation (paper uses 95% CIs over 10 trials).
	ci := 1.96 * sd / math.Sqrt(float64(n))
	return summary{Mean: mean, CI: ci, N: n}
}

func (s summary) String() string {
	if s.N <= 1 {
		return fmt.Sprintf("%.1f", s.Mean)
	}
	return fmt.Sprintf("%.1f±%.1f", s.Mean, s.CI)
}

// protoSpec names one protocol configuration in the comparisons.
type protoSpec struct {
	name  string
	build func(protocol.Query) protocol.Protocol
}

func comparedProtocols() []protoSpec {
	return []protoSpec{
		{"wildfire", func(q protocol.Query) protocol.Protocol { return protocol.NewWildfire(q) }},
		{"spanningtree", func(q protocol.Query) protocol.Protocol { return protocol.NewSpanningTree(q) }},
		{"dag(k=2)", func(q protocol.Query) protocol.Protocol { return protocol.NewDAG(q, 2) }},
		{"dag(k=3)", func(q protocol.Query) protocol.Protocol { return protocol.NewDAG(q, 3) }},
	}
}

// trialResult is one protocol run under one churn draw.
type trialResult struct {
	Value  float64
	Stats  *sim.Stats
	Bounds oracle.Bounds
}

// runTrial executes one protocol over g with R uniform removals.
func runTrial(g *graph.Graph, values []int64, kind agg.Kind, spec protoSpec,
	r int, dHat int, seed int64, medium sim.Medium, withOracle bool) (trialResult, error) {
	q := protocol.Query{Kind: kind, Hq: 0, DHat: dHat, Params: agg.DefaultParams()}
	nw := sim.NewNetwork(sim.Config{Graph: g, Medium: medium, Seed: seed, Values: values})
	var sched churn.Timeline
	if r > 0 {
		sched = churn.UniformRemoval(g.Len(), r, q.Hq, 0, q.Deadline(),
			rand.New(rand.NewSource(seed)))
	}
	sched.Apply(nw)
	p := spec.build(q)
	v, stats, err := protocol.Run(p, nw)
	if err != nil {
		return trialResult{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	tr := trialResult{Value: v, Stats: stats}
	if withOracle {
		tr.Bounds = oracle.Compute(g, values, q.Hq, sched, q.Deadline(), kind)
	}
	return tr, nil
}

// buildTopology constructs a topology with Zipf attribute values.
func buildTopology(kind topology.Kind, n int, seed int64) (*graph.Graph, []int64, int) {
	g := topology.Generate(kind, n, seed)
	values := zipfval.Default(seed).Values(g.Len())
	d := g.DiameterSampled(2, nil)
	return g, values, d
}

// percentile returns the p-th percentile (0..100) of xs.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
