package node

import (
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/protocol"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/zipfval"
)

// newWildfireEngine builds a single-process engine over a random topology
// with a WILDFIRE factory — the setup the daemon runs, in miniature.
func newWildfireEngine(t *testing.T, hosts int, hop time.Duration) (*Runtime, protocol.Query) {
	t.Helper()
	g := topology.Generate(topology.Random, hosts, 11)
	values := zipfval.Default(11).Values(hosts)
	spec := protocol.Query{
		Kind:   agg.Count,
		Hq:     0,
		DHat:   g.Diameter(nil) + 2,
		Params: agg.Params{Vectors: 16, Bits: 32},
	}
	rt, err := New(Config{
		Graph:     g,
		Values:    values,
		Transport: transport.NewChannel(hosts, hop/2),
		Hop:       hop,
		Obs:       obs.NewRegistry(),
		Trace:     obs.NewTracer(0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		return BuildInstance(rt, protocol.NewWildfire(spec), QuerySeed(11, id))
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt, spec
}

// capRead is one side of a twin comparison: it issues query id on twin —
// a second runtime built exactly like the one under test — and reads it
// at hardCap with the early paths shut (floor = hardCap), the way the old
// sleep-out-the-deadline path did. An early read releases its query, so
// "nothing changed it through the deadline" can only be asked of a twin.
// The returned function waits for the read.
func capRead(t *testing.T, twin *Runtime, id QueryID, hq graph.HostID, hardCap time.Duration) func() float64 {
	t.Helper()
	if _, err := twin.StartQuery(id); err != nil {
		t.Fatal(err)
	}
	type read struct {
		v   float64
		ok  bool
		err error
	}
	done := make(chan read, 1)
	go func() {
		v, ok, err := twin.AwaitQueryResult(id, hq, hardCap, time.Millisecond, hardCap)
		done <- read{v, ok, err}
	}()
	return func() float64 {
		t.Helper()
		r := <-done
		if r.err != nil || !r.ok {
			t.Fatalf("twin's cap read failed: ok=%v err=%v", r.ok, r.err)
		}
		return r.v
	}
}

// TestAwaitQueryResultConvergesEarly pins the adaptive-read satellite: on
// a quiet single-process fleet the result is read at quiescence, well
// before the hard cap, never before the floor, and it matches what the
// old sleep-out-the-deadline read returns on a twin fleet.
func TestAwaitQueryResultConvergesEarly(t *testing.T) {
	hop := raceSlowdown * 5 * time.Millisecond
	rt, spec := newWildfireEngine(t, 30, hop)
	twin, _ := newWildfireEngine(t, 30, hop)
	floor := time.Duration(spec.DHat+2) * hop
	settle := 2 * hop
	deadline := 2*time.Duration(spec.DHat)*hop + 10*hop
	cap := deadline + 5*time.Second
	late := capRead(t, twin, 1, spec.Hq, deadline)
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	v, ok, err := rt.AwaitQueryResult(1, spec.Hq, floor, settle, cap)
	elapsed := time.Since(start)
	if err != nil || !ok {
		t.Fatalf("await failed: v=%v ok=%v err=%v", v, ok, err)
	}
	if elapsed < floor {
		t.Fatalf("result read after %v, before the %v floor", elapsed, floor)
	}
	if elapsed >= cap/2 {
		t.Fatalf("result took %v of a %v cap; quiescence polling never bit", elapsed, cap)
	}
	// The early read must be the converged value: what the twin, left
	// running to the protocol deadline, declares there.
	if late := late(); late != v {
		t.Fatalf("early read %v differs from deadline read %v; quiescence declared too soon", v, late)
	}
}

// TestAwaitQueryResultHonorsHardCap forces quiescence to stay undeclared
// (an unreachable settle window): the read must fall back to the cap,
// exactly the old deadline semantics.
func TestAwaitQueryResultHonorsHardCap(t *testing.T) {
	hop := raceSlowdown * 5 * time.Millisecond
	rt, spec := newWildfireEngine(t, 10, hop)
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	cap := 10 * hop
	start := time.Now()
	_, ok, err := rt.AwaitQueryResult(1, spec.Hq, 0, time.Hour, cap)
	elapsed := time.Since(start)
	if err != nil || !ok {
		t.Fatalf("capped await failed: ok=%v err=%v", ok, err)
	}
	if elapsed < cap {
		t.Fatalf("await returned after %v, before its %v hard cap, despite no quiescence", elapsed, cap)
	}
}

// TestResultFloorPolicy pins the soundness split of adaptive reads: a
// fully local runtime may read at quiescence after one broadcast sweep,
// but a sharded one must wait out the protocol deadline — remote workers
// still materializing instances are indistinguishable from a converged
// fleet in the local counters (the bug this policy fixed showed windows
// read at one sweep over TCP declaring a third of the true count).
func TestResultFloorPolicy(t *testing.T) {
	hop := 5 * time.Millisecond
	g := topology.Generate(topology.Random, 20, 1)
	all, err := New(Config{Graph: g, Transport: transport.NewChannel(20, hop/2), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := all.ResultFloor(24), 14*hop; got != want {
		t.Fatalf("all-local floor = %v, want one sweep %v", got, want)
	}
	sharded, err := New(Config{
		Graph:     g,
		Transport: transport.NewChannel(20, hop/2),
		Hop:       hop,
		Local:     []graph.HostID{0, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sharded.ResultFloor(24), 26*hop; got != want {
		t.Fatalf("sharded floor = %v, want deadline-plus-margin %v", got, want)
	}
}

// TestAfterFiresOnTheSharedHeap pins Runtime.After: the closure fires on
// the shared timer heap no earlier than scheduled.
func TestAfterFiresOnTheSharedHeap(t *testing.T) {
	hop := raceSlowdown * 5 * time.Millisecond
	rt, _ := newWildfireEngine(t, 2, hop)
	fired := make(chan time.Time, 1)
	start := time.Now()
	rt.After(3*hop, func() { fired <- time.Now() })
	select {
	case at := <-fired:
		if at.Sub(start) < 3*hop {
			t.Fatalf("After(3 hops) fired after %v", at.Sub(start))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("After closure never fired")
	}
}
