package oracle

import (
	"testing"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
)

// chain builds 0-1-2-3-4 with values 1,2,3,4,5.
func chain() (*graph.Graph, []int64) {
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID(i+1))
	}
	return g, []int64{1, 2, 3, 4, 5}
}

func TestNoChurnBoundsCoincide(t *testing.T) {
	g, vals := chain()
	b := Compute(g, vals, 0, nil, 100, agg.Count)
	if len(b.HC) != 5 || len(b.HU) != 5 {
		t.Fatalf("|HC|=%d |HU|=%d, want 5/5", len(b.HC), len(b.HU))
	}
	if b.LowerValue != 5 || b.UpperValue != 5 {
		t.Fatalf("bounds = %v..%v, want 5..5", b.LowerValue, b.UpperValue)
	}
}

func TestFailureCutsHC(t *testing.T) {
	g, vals := chain()
	// Host 2 fails at t=10 < T: hosts 3,4 lose their stable path.
	sched := churn.Timeline{{H: 2, T: 10}}
	b := Compute(g, vals, 0, sched, 100, agg.Count)
	if len(b.HC) != 2 {
		t.Fatalf("|HC| = %d, want 2 (hosts 0,1)", len(b.HC))
	}
	if len(b.HU) != 5 {
		t.Fatalf("|HU| = %d, want 5", len(b.HU))
	}
	if b.LowerValue != 2 || b.UpperValue != 5 {
		t.Fatalf("count bounds = %v..%v, want 2..5", b.LowerValue, b.UpperValue)
	}
}

func TestFailureAfterDeadlineDoesNotCount(t *testing.T) {
	g, vals := chain()
	sched := churn.Timeline{{H: 2, T: 150}}
	b := Compute(g, vals, 0, sched, 100, agg.Count)
	if len(b.HC) != 5 {
		t.Fatalf("|HC| = %d, want 5 (failure after T)", len(b.HC))
	}
}

func TestFailureExactlyAtDeadlineCounts(t *testing.T) {
	g, vals := chain()
	// Fails at exactly T: not alive during the entire closed interval.
	sched := churn.Timeline{{H: 4, T: 100}}
	b := Compute(g, vals, 0, sched, 100, agg.Count)
	if len(b.HC) != 4 {
		t.Fatalf("|HC| = %d, want 4", len(b.HC))
	}
}

func TestQueryHostFailureEmptiesHC(t *testing.T) {
	g, vals := chain()
	sched := churn.Timeline{{H: 0, T: 5}}
	b := Compute(g, vals, 0, sched, 100, agg.Count)
	if len(b.HC) != 0 {
		t.Fatalf("|HC| = %d, want 0 when hq fails", len(b.HC))
	}
	if b.LowerValue != 0 {
		t.Fatalf("lower bound = %v, want 0", b.LowerValue)
	}
}

func TestSumAndMinMaxBounds(t *testing.T) {
	g, vals := chain()
	sched := churn.Timeline{{H: 2, T: 10}}
	sum := Compute(g, vals, 0, sched, 100, agg.Sum)
	if sum.LowerValue != 3 || sum.UpperValue != 15 {
		t.Fatalf("sum bounds = %v..%v, want 3..15", sum.LowerValue, sum.UpperValue)
	}
	max := Compute(g, vals, 0, sched, 100, agg.Max)
	if max.LowerValue != 2 || max.UpperValue != 5 {
		t.Fatalf("max bounds = %v..%v, want 2..5", max.LowerValue, max.UpperValue)
	}
	min := Compute(g, vals, 0, sched, 100, agg.Min)
	// q(HC)=1, q(HU)=1: host 0 has the global min and is in HC.
	if min.LowerValue != 1 || min.UpperValue != 1 {
		t.Fatalf("min bounds = %v..%v", min.LowerValue, min.UpperValue)
	}
}

func TestValid(t *testing.T) {
	g, vals := chain()
	sched := churn.Timeline{{H: 2, T: 10}}
	b := Compute(g, vals, 0, sched, 100, agg.Count)
	for _, v := range []float64{2, 3, 5} {
		if !b.Valid(v, 0) {
			t.Errorf("count %v should be valid in [2,5]", v)
		}
	}
	for _, v := range []float64{1, 6} {
		if b.Valid(v, 0) {
			t.Errorf("count %v should be invalid", v)
		}
	}
	if !b.Valid(5.4, 0.5) {
		t.Error("eps slack not applied")
	}
}

func TestValidMinOrientation(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	vals := []int64{10, 5, 1}
	// Host 1 fails: HC = {0}, q_min(HC)=10; HU q_min = 1.
	sched := churn.Timeline{{H: 1, T: 1}}
	b := Compute(g, vals, 0, sched, 100, agg.Min)
	if b.LowerValue != 10 || b.UpperValue != 1 {
		t.Fatalf("min bounds = %v..%v, want 10..1", b.LowerValue, b.UpperValue)
	}
	// Any value between 1 and 10 corresponds to some valid H.
	for _, v := range []float64{1, 5, 10} {
		if !b.Valid(v, 0) {
			t.Errorf("min %v should be valid", v)
		}
	}
	if b.Valid(0.5, 0) || b.Valid(11, 0) {
		t.Error("out-of-band min accepted")
	}
}

func TestValidFactor(t *testing.T) {
	g, vals := chain()
	sched := churn.Timeline{{H: 2, T: 10}}
	b := Compute(g, vals, 0, sched, 100, agg.Count) // [2,5]
	if !b.ValidFactor(7.5, 2) {                     // ≤ 5·2
		t.Error("7.5 within factor 2 of upper bound 5")
	}
	if b.ValidFactor(11, 2) {
		t.Error("11 outside factor 2 of [2,5]")
	}
	if !b.ValidFactor(1.2, 2) { // ≥ 2/2
		t.Error("1.2 within factor 2 of lower bound 2")
	}
	if b.ValidFactor(0.5, 2) {
		t.Error("0.5 outside factor 2")
	}
	// f < 1 clamps to exact.
	if !b.ValidFactor(3, 0.1) {
		t.Error("clamped factor should behave like exact bounds")
	}
}

func TestComputePanicsOnLengthMismatch(t *testing.T) {
	g, _ := chain()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on value length mismatch")
		}
	}()
	Compute(g, []int64{1}, 0, nil, 10, agg.Count)
}

func TestEarliestFailureWins(t *testing.T) {
	g, vals := chain()
	// Same host with two schedule entries: the earlier one governs.
	sched := churn.Timeline{{H: 2, T: 200}, {H: 2, T: 10}}
	b := Compute(g, vals, 0, sched, 100, agg.Count)
	if len(b.HC) != 2 {
		t.Fatalf("|HC| = %d, want 2 (earliest failure governs)", len(b.HC))
	}
}
