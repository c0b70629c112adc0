package protocol

import (
	"math"
	"testing"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

func params() agg.Params { return agg.Params{Vectors: 16, Bits: 32} }

func newNet(g *graph.Graph, values []int64, seed int64) *sim.Network {
	return sim.NewNetwork(sim.Config{Graph: g, Seed: seed, Values: values})
}

// fig5Network builds the 4-host P2P network of Example 5.1 / Fig. 5:
// w(5) — x(15), w — y(1), x — z(25), y — z.
func fig5Network() (*graph.Graph, []int64) {
	g := graph.New(4)
	const w, x, y, z = 0, 1, 2, 3
	g.AddEdge(w, x)
	g.AddEdge(w, y)
	g.AddEdge(x, z)
	g.AddEdge(y, z)
	return g, []int64{5, 15, 1, 25}
}

func TestExactPartial(t *testing.T) {
	p := NewExactPartial(10)
	p.Merge(NewExactPartial(4))
	p.Merge(NewExactPartial(20))
	if p.Result(agg.Count) != 3 || p.Result(agg.Sum) != 34 ||
		p.Result(agg.Min) != 4 || p.Result(agg.Max) != 20 {
		t.Fatalf("exact partial wrong: %+v", p)
	}
	if math.Abs(p.Result(agg.Avg)-34.0/3) > 1e-12 {
		t.Fatalf("avg = %v", p.Result(agg.Avg))
	}
	var zero ExactPartial
	if zero.Result(agg.Avg) != 0 {
		t.Fatal("empty avg should be 0")
	}
	zero.Merge(p.Clone())
	if zero.Count != 3 {
		t.Fatal("merge into zero partial should copy")
	}
	p2 := p.Clone()
	p2.Merge(&ExactPartial{})
	if p2.Count != 3 {
		t.Fatal("merging empty partial should be a no-op")
	}
}

func TestQueryValidate(t *testing.T) {
	g := graph.New(3)
	if err := (Query{Kind: agg.Count, Hq: 0, DHat: 0, Params: params()}).Validate(g); err == nil {
		t.Fatal("DHat=0 should fail validation")
	}
	if err := (Query{Kind: agg.Count, Hq: 5, DHat: 2, Params: params()}).Validate(g); err == nil {
		t.Fatal("out-of-range hq should fail")
	}
	if err := (Query{Kind: agg.Count, Hq: 0, DHat: 2}).Validate(g); err == nil {
		t.Fatal("zero params should fail")
	}
	if err := (Query{Kind: agg.Count, Hq: 0, DHat: 2, Params: params()}).Validate(g); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

// Example 5.1: WILDFIRE computes max = 25 on the Fig. 5 network.
func TestWildfireExample51Max(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Max, Hq: 0, DHat: 3, Params: params()}
	w := NewWildfire(q)
	v, _, err := Run(w, newNet(g, vals, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v != 25 {
		t.Fatalf("max = %v, want 25", v)
	}
}

// Example 5.1's failure discussion: if x fails, w still obtains z's value
// through y; if both x and y fail, w outputs its own 5 (H_C = {w}).
func TestWildfireRedundantPaths(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Max, Hq: 0, DHat: 3, Params: params()}

	w := NewWildfire(q)
	nw := newNet(g, vals, 1)
	nw.FailAt(1, 1) // x fails as the broadcast reaches it
	if v, _, err := Run(w, nw); err != nil || v != 25 {
		t.Fatalf("with x failed: v=%v err=%v, want 25 via y", v, err)
	}

	w2 := NewWildfire(q)
	nw2 := newNet(g, vals, 1)
	nw2.FailAt(1, 1)
	nw2.FailAt(2, 1) // both x and y fail
	if v, _, err := Run(w2, nw2); err != nil || v != 5 {
		t.Fatalf("with x,y failed: v=%v err=%v, want 5 (H_C={w})", v, err)
	}
}

func TestWildfireMinFailureFree(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Min, Hq: 0, DHat: 3, Params: params()}
	v, _, err := Run(NewWildfire(q), newNet(g, vals, 1))
	if err != nil || v != 1 {
		t.Fatalf("min = %v (err %v), want 1", v, err)
	}
}

func TestWildfireCountSumEstimates(t *testing.T) {
	// A 64-host random-ish graph; failure-free count should estimate 64
	// within the FM factor and sum should estimate the total.
	g := graph.New(64)
	for i := 1; i < 64; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID((i*7)%i))
	}
	for i := 0; i < 64; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID((i+1)%64))
	}
	vals := make([]int64, 64)
	var total int64
	for i := range vals {
		vals[i] = int64(10 + i)
		total += vals[i]
	}
	qc := Query{Kind: agg.Count, Hq: 0, DHat: 12, Params: params()}
	vc, _, err := Run(NewWildfire(qc), newNet(g, vals, 2))
	if err != nil {
		t.Fatal(err)
	}
	if vc < 64/6 || vc > 64*6 {
		t.Fatalf("count estimate %v far from 64", vc)
	}
	qs := Query{Kind: agg.Sum, Hq: 0, DHat: 12, Params: params()}
	vs, _, err := Run(NewWildfire(qs), newNet(g, vals, 3))
	if err != nil {
		t.Fatal(err)
	}
	if vs < float64(total)/6 || vs > float64(total)*6 {
		t.Fatalf("sum estimate %v far from %d", vs, total)
	}
}

func TestWildfireAvg(t *testing.T) {
	g := graph.New(32)
	for i := 1; i < 32; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID(i-1))
	}
	vals := make([]int64, 32)
	for i := range vals {
		vals[i] = 50
	}
	q := Query{Kind: agg.Avg, Hq: 0, DHat: 40, Params: params()}
	v, _, err := Run(NewWildfire(q), newNet(g, vals, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v < 50.0/4 || v > 50.0*4 {
		t.Fatalf("avg estimate %v far from 50", v)
	}
}

// Example 1.1: SPANNINGTREE loses a whole subtree when an interior host
// fails after broadcast, while WILDFIRE does not.
func TestSpanningTreeLosesSubtree(t *testing.T) {
	// Star-of-chains: hq=0 at the head of a chain 0-1-2-3-4-5.
	g := graph.New(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID(i+1))
	}
	vals := []int64{1, 1, 1, 1, 1, 1}
	q := Query{Kind: agg.Count, Hq: 0, DHat: 6, Params: params()}

	// Failure-free: exact count 6.
	st := NewSpanningTree(q)
	if v, _, err := Run(st, newNet(g, vals, 1)); err != nil || v != 6 {
		t.Fatalf("failure-free spanning tree count = %v (err %v), want 6", v, err)
	}

	// Host 1 fails after broadcast but before its report (reports flow at
	// 2D̂−l; host 1 reports at t=11, so fail at t=8): counts 2..5 are lost.
	st2 := NewSpanningTree(q)
	nw := newNet(g, vals, 1)
	nw.FailAt(1, 8)
	v, _, err := Run(st2, nw)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("spanning tree count with interior failure = %v, want 1 (subtree lost)", v)
	}
}

func TestSpanningTreeParentAssignment(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Count, Hq: 0, DHat: 3, Params: params()}
	st := NewSpanningTree(q)
	if _, _, err := Run(st, newNet(g, vals, 1)); err != nil {
		t.Fatal(err)
	}
	if st.Parent(0) != graph.None {
		t.Fatal("root must have no parent")
	}
	if st.Parent(1) != 0 || st.Parent(2) != 0 {
		t.Fatalf("x,y should parent to w: got %d, %d", st.Parent(1), st.Parent(2))
	}
	if p := st.Parent(3); p != 1 && p != 2 {
		t.Fatalf("z should parent to x or y, got %d", p)
	}
}

// Theorem 4.4 construction: 2n+2 hosts in a cycle plus a pendant at the
// antipode. If h_q's neighbor on the longer side fails after broadcast,
// SPANNINGTREE returns at most |H_C|/2.
func TestTheorem44SpanningTreeArbitrarilyBad(t *testing.T) {
	const n = 8 // cycle of 2n+2 = 18 hosts + pendant
	cycleLen := 2*n + 2
	g := graph.New(cycleLen + 1)
	for i := 0; i < cycleLen; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID((i+1)%cycleLen))
	}
	pendant := graph.HostID(cycleLen)
	g.AddEdge(pendant, graph.HostID(n+1)) // connected at the antipode
	vals := make([]int64, g.Len())
	for i := range vals {
		vals[i] = 1
	}
	q := Query{Kind: agg.Count, Hq: 0, DHat: cycleLen, Params: params()}
	st := NewSpanningTree(q)
	nw := newNet(g, vals, 1)
	// Host 1 (h_q's neighbor on one side) fails right after forwarding the
	// broadcast: its chain of the cycle reports through it and is lost.
	nw.FailAt(1, 3)
	v, _, err := Run(st, nw)
	if err != nil {
		t.Fatal(err)
	}
	// H_C = everyone except host 1 (the cycle keeps the rest connected):
	// |H_C| = 2n+2. The theorem promises v ≤ |H_C|/2 for this instance.
	hc := float64(cycleLen)
	if v > hc/2 {
		t.Fatalf("spanning tree count = %v, theorem expects ≤ %v", v, hc/2)
	}
	// WILDFIRE on the same run stays valid: count estimate must cover all
	// of H_C up to the FM factor; with exact min/max we can assert
	// tightly, so check max over values 1..n instead.
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	qm := Query{Kind: agg.Max, Hq: 0, DHat: cycleLen, Params: params()}
	w := NewWildfire(qm)
	nw2 := newNet(g, vals, 1)
	nw2.FailAt(1, 3)
	vm, _, err := Run(w, nw2)
	if err != nil {
		t.Fatal(err)
	}
	if vm != float64(g.Len()) {
		t.Fatalf("wildfire max = %v, want %d (reaches the far side around the cycle)", vm, g.Len())
	}
}

func TestDAGSurvivesSingleParentFailure(t *testing.T) {
	// Diamond: 0-(1,2)-3 then a tail 3-4. DAG with k=2 gives host 3 two
	// parents; killing parent 1 after broadcast must not lose 3 and 4.
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	vals := []int64{0, 0, 0, 0, 99}
	q := Query{Kind: agg.Max, Hq: 0, DHat: 4, Params: params()}

	d := NewDAG(q, 2)
	nw := newNet(g, vals, 1)
	nw.FailAt(1, 4) // after broadcast (t≤2), before reports (t=2D̂−l≥5)
	v, _, err := Run(d, nw)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("dag(k=2) max = %v, want 99 via surviving parent", v)
	}
	if ps := d.hosts[3].parents; len(ps) != 2 {
		t.Fatalf("host 3 parents = %v, want 2", ps)
	}

	// SPANNINGTREE on the same failure may lose the tail (if 3 parented
	// through 1). Host 3's parent is whichever of 1,2 delivered first —
	// deterministic per seed; assert only that DAG ≥ ST here.
	st := NewSpanningTree(q)
	nw2 := newNet(g, vals, 1)
	nw2.FailAt(1, 4)
	vs, _, err := Run(st, nw2)
	if err != nil {
		t.Fatal(err)
	}
	if vs > v {
		t.Fatalf("spanning tree (%v) beat dag (%v) under failure", vs, v)
	}
}

func TestDAGRequiresPositiveK(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Count, Hq: 0, DHat: 3, Params: params()}
	d := NewDAG(q, 0)
	if err := d.Install(newNet(g, vals, 1)); err == nil {
		t.Fatal("k=0 should fail")
	}
}

func TestDAGCountFailureFree(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Count, Hq: 0, DHat: 3, Params: params()}
	v, _, err := Run(NewDAG(q, 3), newNet(g, vals, 5))
	if err != nil {
		t.Fatal(err)
	}
	if v < 1 || v > 4*8 {
		t.Fatalf("dag count estimate = %v for 4 hosts", v)
	}
}

func TestAllReportExactFailureFree(t *testing.T) {
	g, vals := fig5Network()
	for _, k := range []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg} {
		q := Query{Kind: k, Hq: 0, DHat: 3, Params: params()}
		ar := NewAllReport(q)
		v, _, err := Run(ar, newNet(g, vals, 1))
		if err != nil {
			t.Fatal(err)
		}
		want := agg.Exact(k, vals)
		if v != want {
			t.Fatalf("allreport %v = %v, want %v", k, v, want)
		}
	}
}

func TestAllReportCollectsAll(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Count, Hq: 0, DHat: 3, Params: params()}
	ar := NewAllReport(q)
	if _, _, err := Run(ar, newNet(g, vals, 1)); err != nil {
		t.Fatal(err)
	}
	if n := len(ar.hosts[q.Hq].collected); n != 4 {
		t.Fatalf("reports = %d, want 4", n)
	}
}

func TestAllReportLossUnderRelayFailure(t *testing.T) {
	// Chain 0-1-2: if 1 dies before relaying 2's report, the report is
	// lost (the documented deviation from the abstract model).
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	vals := []int64{1, 1, 1}
	q := Query{Kind: agg.Count, Hq: 0, DHat: 3, Params: params()}
	ar := NewAllReport(q)
	nw := newNet(g, vals, 1)
	nw.FailAt(1, 2) // 1 reported at t=1→arrives t=2; 2's report arrives at 1 at t=3: dropped
	v, _, err := Run(ar, nw)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("allreport count = %v, want 2 (hq + host 1)", v)
	}
}

func TestRandomizedReportEstimate(t *testing.T) {
	// 400-host connected graph, p = 0.5: estimate should land near 400.
	n := 400
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID((i-1)/2)) // binary tree
	}
	vals := make([]int64, n)
	q := Query{Kind: agg.Count, Hq: 0, DHat: 12, Params: params()}
	rr := NewRandomizedReport(q, 0.5)
	v, stats, err := Run(rr, newNet(g, vals, 6))
	if err != nil {
		t.Fatal(err)
	}
	if v < float64(n)*0.7 || v > float64(n)*1.3 {
		t.Fatalf("randomized estimate %v far from %d", v, n)
	}
	// Sampling must send fewer report messages than ALLREPORT would.
	ar := NewAllReport(q)
	_, statsAll, err := Run(ar, newNet(g, vals, 6))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesSent >= statsAll.MessagesSent {
		t.Fatalf("randomized (%d msgs) not cheaper than allreport (%d)",
			stats.MessagesSent, statsAll.MessagesSent)
	}
}

func TestReportProbability(t *testing.T) {
	p := ReportProbability(0.1, 0.05, 100000)
	if p <= 0 || p > 1 {
		t.Fatalf("p = %v out of range", p)
	}
	if ReportProbability(0.1, 0.05, 10) != 1 {
		t.Fatal("tiny n should clamp p to 1")
	}
	if ReportProbability(0, 0.05, 1000) != 1 || ReportProbability(0.1, 0, 1000) != 1 {
		t.Fatal("degenerate parameters should clamp to 1")
	}
}

func TestRandomizedReportValidation(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Count, Hq: 0, DHat: 3, Params: params()}
	rr := NewRandomizedReport(q, 0)
	if err := rr.Install(newNet(g, vals, 1)); err == nil {
		t.Fatal("p=0 should fail install")
	}
	rr2 := NewRandomizedReport(q, 1.5)
	if err := rr2.Install(newNet(g, vals, 1)); err == nil {
		t.Fatal("p>1 should fail install")
	}
}

func TestRunErrorWhenHqFails(t *testing.T) {
	g, vals := fig5Network()
	q := Query{Kind: agg.Max, Hq: 0, DHat: 3, Params: params()}
	w := NewWildfire(q)
	nw := newNet(g, vals, 1)
	if err := w.Install(nw); err != nil {
		t.Fatal(err)
	}
	// hq never starts because we kill it at t=0 via a pre-start trick: we
	// cannot fail before Start, so instead verify Result ok=false when no
	// handler was started at all (fresh instance).
	w2 := NewWildfire(q)
	if err := w2.Install(newNet(g, vals, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := w2.Result(); ok {
		t.Fatal("result before run should not be ok")
	}
}

func TestWildfireCheaperForMinThanCount(t *testing.T) {
	// §6.6: early aggregation during broadcast suppresses min/max traffic
	// relative to count (sketches keep changing, scalars saturate).
	g := graph.New(100)
	for i := 1; i < 100; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID((i-1)/2))
	}
	for i := 0; i < 99; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID(i+1))
	}
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(100 - i)
	}
	run := func(k agg.Kind) int64 {
		q := Query{Kind: k, Hq: 0, DHat: 10, Params: params()}
		_, st, err := Run(NewWildfire(q), newNet(g, vals, 7))
		if err != nil {
			t.Fatal(err)
		}
		return st.MessagesSent
	}
	if mi, cnt := run(agg.Min), run(agg.Count); mi >= cnt {
		t.Fatalf("min traffic (%d) should undercut count traffic (%d)", mi, cnt)
	}
}

func TestWildfireEarlyDeadlineReducesOrEqualsTraffic(t *testing.T) {
	g := graph.New(64)
	for i := 1; i < 64; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID((i-1)/2))
	}
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(i)
	}
	run := func(early bool) int64 {
		q := Query{Kind: agg.Count, Hq: 0, DHat: 20, Params: params()}
		w := NewWildfire(q)
		w.EarlyDeadline = early
		_, st, err := Run(w, newNet(g, vals, 8))
		if err != nil {
			t.Fatal(err)
		}
		return st.MessagesSent
	}
	if e, f := run(true), run(false); e > f {
		t.Fatalf("early deadline increased traffic: %d > %d", e, f)
	}
}

func TestProtocolNames(t *testing.T) {
	q := Query{Kind: agg.Count, Hq: 0, DHat: 1, Params: params()}
	if NewWildfire(q).Name() != "wildfire" ||
		NewSpanningTree(q).Name() != "spanningtree" ||
		NewDAG(q, 2).Name() != "dag(k=2)" ||
		NewAllReport(q).Name() != "allreport" ||
		NewRandomizedReport(q, 0.5).Name() != "randomizedreport" {
		t.Fatal("protocol names wrong")
	}
}
