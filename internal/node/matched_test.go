package node

import (
	"testing"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// TestEngineAnswersMeetMatchedBounds holds the live engine to the coin-
// matched verdict. A 60-host in-process fleet answers every aggregate at
// c = 8 and c = 64, first on a static network and then under session
// churn with joins, each query on its own schedule. Every answer lies
// inside its matched bounds, and a static sketch answer equals both: the
// engine draws each host's coins from QuerySeed(seed, id) and the host
// alone, as the judge does.
func TestEngineAnswersMeetMatchedBounds(t *testing.T) {
	const n, seed, dHat = 60, 29, 12
	g := topology.Generate(topology.Random, n, seed)
	values := zipfval.Default(seed).Values(n)
	src, err := churn.ParseSource("model=sessions,mean=60,join=20", n)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []agg.Kind{agg.Count, agg.Sum, agg.Min, agg.Max, agg.Avg}
	// Query id−1 picks the kind, then c, then static or churned.
	specFor := func(id QueryID) (protocol.Query, bool) {
		i := int(id - 1)
		c := []int{8, 64}[i/len(kinds)%2]
		return protocol.Query{Kind: kinds[i%len(kinds)], Hq: 0, DHat: dHat, Params: agg.Params{Vectors: c, Bits: 32}},
			i >= 2*len(kinds)
	}
	churnFor := func(id QueryID, q protocol.Query, churned bool) churn.Timeline {
		if !churned {
			return nil
		}
		return src.Schedule(churn.QuerySeed(seed, int64(id)), q.Hq, q.Deadline())
	}
	rt := chanRuntime(t, g, values, testHop)
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		q, churned := specFor(id)
		inst, err := BuildInstance(rt, protocol.NewWildfire(q), QuerySeed(seed, id))
		if err == nil {
			inst.Churn = churnFor(id, q, churned)
		}
		return inst, err
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	bitten := 0
	for id := QueryID(1); id <= QueryID(4*len(kinds)); id++ {
		q, churned := specFor(id)
		if _, err := rt.StartQuery(id); err != nil {
			t.Fatal(err)
		}
		floor, settle, hardCap := rt.AwaitBracket(q.Deadline())
		v, ok, err := rt.AwaitQueryResult(id, q.Hq, floor, settle, hardCap)
		if err != nil || !ok {
			t.Fatalf("query %d: await failed: ok=%v err=%v", id, ok, err)
		}
		m := oracle.Compute(g, values, q.Hq, churnFor(id, q, churned), q.Deadline(), q.Kind).
			Matched(values, q.Params, QuerySeed(seed, id))
		if len(m.HC) < len(m.HU) {
			bitten++
		}
		if !m.Valid(v) {
			t.Errorf("query %d (%v, c=%d, churned=%t): %v outside its matched bounds [%v, %v]",
				id, q.Kind, q.Params.Vectors, churned, v, m.LowerValue, m.UpperValue)
		}
		if !churned && q.Kind.DuplicateSensitive() && (v != m.LowerValue || v != m.UpperValue) {
			t.Errorf("query %d (%v, c=%d, static): %v, want exactly the matched estimate %v",
				id, q.Kind, q.Params.Vectors, v, m.LowerValue)
		}
	}
	if bitten == 0 {
		t.Fatal("churn never split H_C from H_U")
	}
}
