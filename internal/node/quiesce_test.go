package node

import (
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/wire"
)

// quiesceWorkerState builds a runtime that serves hosts 0..6 of an
// 8-host graph whose query issuer (host 7) lives in another process per
// the roster, plus a query state for it — the announcer-side setup, with
// no traffic flowing so the epoch machine can be driven by hand.
func quiesceWorkerState(t *testing.T, hop time.Duration) (*Runtime, *queryState) {
	t.Helper()
	g := topology.Generate(topology.Random, 8, 7)
	localHosts := []graph.HostID{0, 1, 2, 3, 4, 5, 6}
	rt, err := New(Config{
		Graph:     g,
		Transport: transport.NewChannel(8, 0),
		Hop:       hop,
		Local:     localHosts,
		Quiesce:   true,
		Roster:    []int{0, 0, 0, 0, 0, 0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.quiesce {
		t.Fatal("runtime with a remote issuer did not enable quiescence")
	}
	inst := &QueryInstance{Handlers: make([]sim.Handler, 8), Deadline: 24, Origin: 7}
	qs := newQueryState(rt, 1, inst, inst.Deadline)
	if !rt.quiesceAnnouncer(qs) {
		t.Fatal("worker state with a remote origin is not an announcer")
	}
	return rt, qs
}

// TestQuiesceStepEpochMachine drives the announcer's decision function
// with fabricated clocks: a quiet claim needs one sweep of stillness,
// resumed activity withdraws it under a bumped epoch (late-activity
// invalidation), and re-quiescing re-announces under the new epoch.
func TestQuiesceStepEpochMachine(t *testing.T) {
	hop := 4 * time.Millisecond
	rt, qs := quiesceWorkerState(t, hop)
	silence := rt.quiesceSilence(qs.deadline)
	if silence != 12*hop {
		t.Fatalf("silence threshold = %v, want one sweep %v", silence, 12*hop)
	}

	t0 := time.Now()
	rt.armQuiesce(qs, t0)
	if ann := qs.quiesceStep(rt, t0.Add(2*silence)); ann != nil {
		t.Fatalf("announced %+v with zero activity", ann)
	}

	qs.delivered.Add(3)
	if ann := qs.quiesceStep(rt, t0.Add(2*silence)); ann != nil {
		t.Fatalf("announced %+v on the step that saw activity change", ann)
	}
	quietAt := t0.Add(3 * silence)
	ann := qs.quiesceStep(rt, quietAt)
	if ann == nil || !ann.Quiet || ann.Epoch != 0 || ann.Activity != 3 {
		t.Fatalf("after a sweep of silence got %+v, want quiet epoch 0 act 3", ann)
	}
	if ann := qs.quiesceStep(rt, quietAt.Add(silence)); ann != nil {
		t.Fatalf("re-announced %+v while still quiet", ann)
	}

	// Late activity: the outstanding quiet claim must be withdrawn under
	// a higher epoch immediately, not after another sweep.
	qs.sent.Add(1)
	busyAt := quietAt.Add(2 * silence)
	ann = qs.quiesceStep(rt, busyAt)
	if ann == nil || ann.Quiet || ann.Epoch != 1 || ann.Activity != 4 {
		t.Fatalf("after late activity got %+v, want busy epoch 1 act 4", ann)
	}

	ann = qs.quiesceStep(rt, busyAt.Add(silence))
	if ann == nil || !ann.Quiet || ann.Epoch != 1 {
		t.Fatalf("re-quiescing got %+v, want quiet epoch 1", ann)
	}
}

// quiesceIssuerState builds the mirror setup: this runtime serves hosts
// 0..6 including the issuer (host 0), and host 7 belongs to peer
// process 1 — so remoteQuiet waits on exactly one peer's claim.
func quiesceIssuerState(t *testing.T, hop time.Duration) (*Runtime, *queryState) {
	t.Helper()
	g := topology.Generate(topology.Random, 8, 7)
	rt, err := New(Config{
		Graph:     g,
		Transport: transport.NewChannel(8, 0),
		Hop:       hop,
		Local:     []graph.HostID{0, 1, 2, 3, 4, 5, 6},
		Quiesce:   true,
		Roster:    []int{0, 0, 0, 0, 0, 0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, holdQuery(rt, 1, 0)
}

// holdQuery registers a handler-less query with the given origin in rt's
// demux by hand, as an instantiation would have, with no traffic flowing.
func holdQuery(rt *Runtime, id QueryID, origin graph.HostID) *queryState {
	inst := &QueryInstance{Handlers: make([]sim.Handler, rt.g.Len()), Deadline: 24, Origin: origin}
	qs := newQueryState(rt, id, inst, inst.Deadline)
	e := &queryEntry{qs: qs}
	e.once.Do(func() {})
	rt.mu.Lock()
	rt.queries[id] = e
	rt.mu.Unlock()
	return qs
}

// TestQuiesceSupersession pins the issuer-side epoch rule: a busy
// re-announce invalidates the quiet claim it supersedes, a stale report
// from an earlier epoch is discarded, and only a quiet claim at the
// highest seen epoch satisfies remoteQuiet.
func TestQuiesceSupersession(t *testing.T) {
	rt, qs := quiesceIssuerState(t, 4*time.Millisecond)
	report := func(epoch uint32, quiet bool) {
		rt.handleQuiesce(transport.Message{From: 7, To: 0, Query: 1},
			wire.Quiesce{Epoch: epoch, Activity: 9, Quiet: quiet})
	}

	if rt.remoteQuiet(qs) {
		t.Fatal("remoteQuiet with no reports")
	}
	report(0, true)
	if !rt.remoteQuiet(qs) {
		t.Fatal("peer's quiet claim not registered")
	}
	report(1, false)
	if rt.remoteQuiet(qs) {
		t.Fatal("busy re-announce did not withdraw the quiet claim")
	}
	report(0, true) // stale: epoch 0 after epoch 1 must be ignored
	if rt.remoteQuiet(qs) {
		t.Fatal("stale lower-epoch quiet claim was believed")
	}
	report(1, true)
	if !rt.remoteQuiet(qs) {
		t.Fatal("quiet claim at the current epoch not believed")
	}

	// Hostile inputs must neither panic nor conjure state: a From host
	// outside the graph, and a claim for a query this process never saw.
	rt.handleQuiesce(transport.Message{From: 99, To: 0, Query: 1}, wire.Quiesce{Quiet: true})
	rt.handleQuiesce(transport.Message{From: 7, To: 0, Query: 404}, wire.Quiesce{Quiet: true})
	if rt.lookupQuery(404) != nil {
		t.Fatal("a quiesce frame instantiated a query")
	}
}

// newShardedWildfire builds a live engine in the issuer role: WILDFIRE
// over 8 hosts with h_q=0 local and host 7 assigned to an absent peer
// process — sends to it vanish, its announce never comes unless the test
// injects one. Exactly the dead-peer topology of the fallback test.
func newShardedWildfire(t *testing.T, hop time.Duration) (*Runtime, protocol.Query) {
	t.Helper()
	g := topology.Generate(topology.Random, 8, 7)
	spec := protocol.Query{
		Kind:   agg.Min,
		Hq:     0,
		DHat:   12,
		Params: agg.Params{Vectors: 16, Bits: 32},
	}
	// MIN is exact (no sketch noise), so convergence is checkable as a
	// value: the minimum over the seven served hosts is 10; the absent
	// peer's host 7 holds the global minimum 3, which must NOT appear.
	rt, err := New(Config{
		Graph:     g,
		Values:    []int64{10, 11, 12, 13, 14, 15, 16, 3},
		Transport: transport.NewChannel(8, hop/2),
		Hop:       hop,
		Local:     []graph.HostID{0, 1, 2, 3, 4, 5, 6},
		Quiesce:   true,
		Roster:    []int{0, 0, 0, 0, 0, 0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		inst, err := BuildInstance(rt, protocol.NewWildfire(spec), QuerySeed(7, id))
		if err != nil {
			return nil, err
		}
		inst.Origin = spec.Hq
		return inst, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt, spec
}

// TestAwaitQuiesceDeadPeerFallsBackToFloor pins the fallback: with a
// peer process that never reports (dead, partitioned, or opted out),
// the quiesce fast path must never fire — the read wait is the classic
// sharded floor, and correctness rides the unchanged cap.
func TestAwaitQuiesceDeadPeerFallsBackToFloor(t *testing.T) {
	hop := raceSlowdown * 3 * time.Millisecond
	rt, spec := newShardedWildfire(t, hop)
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	deadline := 2 * sim.Time(spec.DHat)
	floor := rt.ResultFloor(deadline)
	start := time.Now()
	v, ok, err := rt.AwaitQueryResult(1, spec.Hq, floor, 2*hop, floor+20*hop)
	elapsed := time.Since(start)
	if err != nil || !ok {
		t.Fatalf("await failed: ok=%v err=%v", ok, err)
	}
	if elapsed < floor {
		t.Fatalf("read after %v, below the %v sharded floor, with no peer report", elapsed, floor)
	}
	if v != 10 {
		t.Fatalf("min = %v, want 10 over the served hosts", v)
	}
}

// TestAwaitQuiesceEarlyRead pins the fast path end to end on the await
// side: once the (sole) peer process claims quiescence, the read returns
// strictly below the sharded floor — at the quiesce floor plus settle —
// with the converged value.
func TestAwaitQuiesceEarlyRead(t *testing.T) {
	hop := raceSlowdown * 3 * time.Millisecond
	rt, spec := newShardedWildfire(t, hop)
	twin, _ := newShardedWildfire(t, hop)
	deadline := 2 * sim.Time(spec.DHat)
	floor := rt.ResultFloor(deadline)
	// The twin hears from no peer and reads at the protocol deadline.
	late := capRead(t, twin, 2, spec.Hq, floor+2*hop)
	if _, err := rt.StartQuery(2); err != nil {
		t.Fatal(err)
	}
	// The peer's quiet announce, arriving early in the query's life.
	rt.handleQuiesce(transport.Message{From: 7, To: 0, Query: 2},
		wire.Quiesce{Epoch: 0, Activity: 1, Quiet: true})

	start := time.Now()
	v, ok, err := rt.AwaitQueryResult(2, spec.Hq, floor, 2*hop, floor+20*hop)
	elapsed := time.Since(start)
	if err != nil || !ok {
		t.Fatalf("await failed: ok=%v err=%v", ok, err)
	}
	if elapsed >= floor {
		t.Fatalf("read took %v, not below the %v sharded floor despite a quiet peer", elapsed, floor)
	}
	qFloor := rt.quiesceFloor(rt.lookupQuery(2))
	if elapsed < qFloor {
		t.Fatalf("read after %v, below even the %v quiesce floor", elapsed, qFloor)
	}
	if v != 10 {
		t.Fatalf("min = %v, want 10 over the served hosts", v)
	}
	// The early read must already be final: what the twin declares at the
	// protocol deadline.
	if late := late(); late != v {
		t.Fatalf("deadline read %v differs from early read %v", late, v)
	}
}
