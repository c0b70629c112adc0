package protocol

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/wire"
)

// Two communities joined by a single bridge host; killing the bridge
// partitions the network (§3.2's "overlay network partitions").
func bridged() (*graph.Graph, graph.HostID) {
	g := graph.New(21)
	// Community A: 0..9 (ring), community B: 11..20 (ring), bridge: 10.
	for i := 0; i < 10; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID((i+1)%10))
	}
	for i := 11; i < 21; i++ {
		next := i + 1
		if next == 21 {
			next = 11
		}
		g.AddEdge(graph.HostID(i), graph.HostID(next))
	}
	g.AddEdge(9, 10)
	g.AddEdge(10, 11)
	return g, 10
}

func TestPartitionMidQueryWildfireRespectsHC(t *testing.T) {
	g, bridge := bridged()
	vals := make([]int64, g.Len())
	for i := range vals {
		vals[i] = int64(i + 1) // max lives at host 20, across the bridge
	}
	q := Query{Kind: agg.Max, Hq: 0, DHat: 25, Params: params()}

	// Bridge dies before the broadcast can cross (it sits ≥ 5 hops out;
	// kill at t=1): community B never participates, H_C = community A +
	// nothing beyond, and the result must be the max of A.
	w := NewWildfire(q)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1, Values: vals})
	nw.FailAt(bridge, 1)
	v, _, err := Run(w, nw)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Fatalf("partitioned max = %v, want 10 (community A only)", v)
	}
	sched := churn.Timeline{{H: bridge, T: 1}}
	b := oracle.Compute(g, vals, 0, sched, q.Deadline(), agg.Max)
	if !b.Valid(v) {
		t.Fatalf("partitioned result %v outside oracle [%v,%v]", v, b.LowerValue, b.UpperValue)
	}

	// Bridge dies after the flood crossed but before convergecast can
	// return (bridge ~6 hops out; flood crosses by t≈7; kill at 9).
	// Values from B are then not required — B has no stable path — but
	// anything that made it back early may legitimately be included
	// (H ⊆ H_U). The result must be ≥ max(A).
	w2 := NewWildfire(q)
	nw2 := sim.NewNetwork(sim.Config{Graph: g, Seed: 1, Values: vals})
	nw2.FailAt(bridge, 9)
	v2, _, err := Run(w2, nw2)
	if err != nil {
		t.Fatal(err)
	}
	if v2 < 10 || v2 > 21 {
		t.Fatalf("late-partition max = %v, want within [10,21]", v2)
	}
	sched2 := churn.Timeline{{H: bridge, T: 9}}
	b2 := oracle.Compute(g, vals, 0, sched2, q.Deadline(), agg.Max)
	if !b2.Valid(v2) {
		t.Fatalf("late-partition result %v outside oracle [%v,%v]", v2, b2.LowerValue, b2.UpperValue)
	}
}

func TestJoinersMayContributeButNeverRequired(t *testing.T) {
	// A host joining mid-query sits in H_U but not H_C: its value may or
	// may not appear; validity holds either way. Join host 3 (value 99)
	// onto a 3-chain at t=2 (while the query is live).
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	vals := []int64{1, 2, 3, 99}
	q := Query{Kind: agg.Max, Hq: 0, DHat: 6, Params: params()}
	w := NewWildfire(q)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1, Values: vals})
	if err := w.Install(nw); err != nil {
		t.Fatal(err)
	}
	nw.SetInitiallyDead(3)
	nw.JoinAt(3, 2)
	nw.Run(q.Deadline())
	v, ok := w.Result()
	if !ok {
		t.Fatal("no result")
	}
	// H_C max = 3; H_U max = 99. Either is a valid answer.
	if v != 3 && v != 99 {
		t.Fatalf("max with joiner = %v, want 3 or 99", v)
	}
}

func TestAllNeighborsOfHqFail(t *testing.T) {
	// Star: hq in the center, all leaves die at t=1 (before their
	// convergecast arrives at t≥2... leaves receive at 1, reply arrives
	// at 2; dead by then means hq only has itself).
	g := graph.New(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(0, graph.HostID(i))
	}
	vals := []int64{7, 50, 60, 70, 80}
	q := Query{Kind: agg.Max, Hq: 0, DHat: 2, Params: params()}
	w := NewWildfire(q)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1, Values: vals})
	for i := 1; i < 5; i++ {
		nw.FailAt(graph.HostID(i), 1)
	}
	v, _, err := Run(w, nw)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("isolated hq max = %v, want its own 7 (H_C = {hq})", v)
	}
}

func TestWirelessGridValidityUnderChurn(t *testing.T) {
	g := topology.NewGrid(12, 12)
	vals := make([]int64, g.Len())
	for i := range vals {
		vals[i] = int64(i%37 + 1)
	}
	q := Query{Kind: agg.Max, Hq: 0, DHat: 14, Params: params()}
	for seed := int64(0); seed < 3; seed++ {
		w := NewWildfire(q)
		nw := sim.NewNetwork(sim.Config{Graph: g, Medium: sim.MediumWireless, Seed: seed, Values: vals})
		sched := churnSchedule(g.Len(), 20, seed, q.Deadline())
		sched.Apply(nw)
		v, _, err := Run(w, nw)
		if err != nil {
			t.Fatal(err)
		}
		b := oracle.Compute(g, vals, 0, sched, q.Deadline(), agg.Max)
		if !b.Valid(v) {
			t.Fatalf("seed %d: wireless max %v outside [%v,%v]", seed, v, b.LowerValue, b.UpperValue)
		}
	}
}

// A broadcast whose hop count is no path length in G — what a stale or
// hostile frame can carry, the codec yields anything up to 2³²−1 — is
// dropped before it activates anyone: a ValueFn would take it for the
// host's distance, and at 2³²−1 the host's own forward would not encode.
// The host activates on the next legitimate broadcast instead and the
// answer stays inside the oracle's bounds.
func TestWildfireDropsBroadcastWithImpossibleHop(t *testing.T) {
	g := graph.New(4) // a line: 0 — 1 — 2 — 3, the maximum at the far end
	for h := graph.HostID(0); h < 3; h++ {
		g.AddEdge(h, h+1)
	}
	vals := []int64{5, 15, 1, 25}
	q := Query{Kind: agg.Max, Hq: 0, DHat: 3, Params: params()}
	b := oracle.Compute(g, vals, q.Hq, churn.Timeline{}, q.Deadline(), q.Kind)

	// The 2³²−1 case comes off the wire, as a peer would deliver it.
	frame, err := wire.AppendFrame(nil, wire.Frame{From: 3, To: 2, Query: 1, Payload: bcast(1, agg.NewPartial(agg.Max, 0, q.Params, nil))})
	if err != nil {
		t.Fatal(err)
	}
	hop := frame[4+wire.FrameHeaderSize:][:4]
	binary.LittleEndian.PutUint32(hop, math.MaxUint32)
	decoded, err := wire.DecodeFrameBody(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	forged := []any{decoded.Payload}
	for _, hop := range []int{0, -1, g.Len()} {
		forged = append(forged, bcast(hop, agg.NewPartial(agg.Max, 0, q.Params, nil)))
	}
	for _, m := range forged {
		hop := m.(wfBroadcast).S.hop // the snapshot is recycled once received
		w := NewWildfire(q)
		nw := newNet(g, vals, 1)
		if err := w.Install(nw); err != nil {
			t.Fatal(err)
		}
		nw.Send(3, 2, m, 0) // reaches host 2 at t=1, a tick before the query does
		nw.Run(w.Deadline())
		v, ok := w.Result()
		if !ok || !b.Valid(v) {
			t.Fatalf("hop %d: max = %v, outside the oracle's [%v,%v]", hop, v, b.LowerValue, b.UpperValue)
		}
		if h := w.hosts[2]; !h.active || h.act != 2 {
			t.Fatalf("hop %d: host 2 active=%v at tick %d, want activated by host 1's broadcast at 2", hop, h.active, h.act)
		}
	}
}

func churnSchedule(n, r int, seed int64, deadline sim.Time) churn.Timeline {
	return churn.UniformRemoval(n, r, 0, 0, deadline, newRand(seed))
}

// newRand is a tiny helper so churnSchedule reads cleanly.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// A partial the query could not have built — another kind, other sketch
// dimensions, or none at all — makes Combine panic, and nothing recovers
// on a shard worker: one such frame from any peer that can reach the port
// would kill the process. The zero Partial is the quiet case: it is of
// kind Min with value 0, so on a MIN query it would combine and answer 0.
// Each forgery is decoded here off real wire bytes, as a peer's frame
// delivers it, into a COUNT and a MIN query (c=64, 32 bits) on a line: a
// partial of the other kind, a c=8 sketch, a bits=16 sketch, a broadcast
// with has=0 and a zero partial, which travels as has=0 too. WILDFIRE sees
// each as a broadcast and a converge at the active h_q and as a broadcast
// at host 2 before the query reaches it. DAG sees each as a report at h_q,
// handed over as a value: its messages have no wire format. The handlers
// drop them: WILDFIRE answers inside its matched bounds, and DAG as it
// does without them.
func TestHandlersDropNonConformingPartials(t *testing.T) {
	g := graph.New(4) // 0 — 1 — 2 — 3
	for h := graph.HostID(0); h < 3; h++ {
		g.AddEdge(h, h+1)
	}
	vals := []int64{5, 15, 1, 25}
	offWire := func(from, to graph.HostID, payload any) sim.Message {
		t.Helper()
		frame, err := wire.AppendFrame(nil, wire.Frame{From: from, To: to, Query: 1, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := wire.DecodeFrameBody(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		return sim.MakeMessage(from, to, decoded.Payload, 0)
	}
	run := func(p Protocol, frames ...sim.Message) float64 {
		t.Helper()
		nw := newNet(g, vals, 1)
		if err := p.Install(nw); err != nil {
			t.Fatal(err)
		}
		for _, m := range frames {
			nw.Send(m.From, m.To, m.Payload, 0) // arrives at t=1
		}
		nw.Run(p.Deadline())
		v, ok := p.Result()
		if !ok {
			t.Fatalf("%s declared no result", p.Name())
		}
		return v
	}
	for _, kind := range []agg.Kind{agg.Count, agg.Min} {
		q := Query{Kind: kind, Hq: 0, DHat: 3, Params: agg.Params{Vectors: 64, Bits: 32}}
		b := oracle.Compute(g, vals, q.Hq, churn.Timeline{}, q.Deadline(), q.Kind).Matched(vals, q.Params, 1)
		other := agg.Min
		if kind == agg.Min {
			other = agg.Count
		}
		rng := newRand(7)
		forged := []struct {
			name string
			p    *agg.Partial
		}{
			{other.String() + " partial", agg.NewPartial(other, 0, q.Params, rng)},
			{"c=8 sketch", agg.NewPartial(agg.Count, 1, agg.Params{Vectors: 8, Bits: 32}, rng)},
			{"bits=16 sketch", agg.NewPartial(agg.Count, 1, agg.Params{Vectors: 64, Bits: 16}, rng)},
			{"has=0", nil},
			{"zero partial", new(agg.Partial)},
		}
		// A dropped forgery leaves DAG's answer as it is without one.
		dag := run(NewDAG(q, 2))
		for _, f := range forged {
			if v := run(NewWildfire(q),
				offWire(1, 0, bcast(1, f.p)),
				offWire(1, 0, wfConverge{S: carry(f.p)}),
				offWire(3, 2, bcast(1, f.p))); !b.Valid(v) {
				t.Errorf("%s, wildfire %v: %v, outside the matched bounds [%v,%v]",
					f.name, kind, v, b.LowerValue, b.UpperValue)
			}
			if v := run(NewDAG(q, 2), sim.MakeMessage(1, 0, dagReport{A: f.p}, 0)); v != dag {
				t.Errorf("%s, dag %v: %v, %v without the forgery", f.name, kind, v, dag)
			}
		}
	}
}
