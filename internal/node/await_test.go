package node

import (
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/zipfval"
)

// newWildfireEngine builds a single-process engine over a random topology
// with a WILDFIRE factory — the setup the daemon runs, in miniature. Odd
// query ids count, even ones take the minimum.
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
		q := spec
		if id%2 == 0 {
			q.Kind = agg.Min
		}
		return BuildInstance(rt, protocol.NewWildfire(q), QuerySeed(11, id))
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt, spec
}

// declared is the Protocol of a fabricated instance: only Result is ever
// called on it (QueryResult), and it declares a fixed value.
type declared struct {
	protocol.Protocol
	ok bool
}

func (d declared) Result() (float64, bool) { return 42, d.ok }

// newFabricatedEngine starts an all-local chan engine over g whose every
// query runs the handlers build returns for it and declares 42.
func newFabricatedEngine(t *testing.T, g *graph.Graph, hop time.Duration, build func(QueryID) *QueryInstance) *Runtime {
	t.Helper()
	return newFabricatedEngineOver(t, g, transport.NewChannel(g.Len(), hop/2), hop, build)
}

// newFabricatedEngineOver is newFabricatedEngine over a transport of the
// caller's choosing — a slower pipe than the δ/2 default, say.
func newFabricatedEngineOver(t *testing.T, g *graph.Graph, tr transport.Transport, hop time.Duration, build func(QueryID) *QueryInstance) *Runtime {
	t.Helper()
	rt, err := New(Config{
		Graph:     g,
		Transport: tr,
		Hop:       hop,
		Obs:       obs.NewRegistry(),
		Trace:     obs.NewTracer(0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		inst := build(id)
		inst.Protocol, inst.Deadline = declared{ok: true}, 1000
		return inst, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt
}

// earlyReadDetails returns the details of query id's EvEarlyRead events.
func earlyReadDetails(rt *Runtime, id QueryID) []string {
	var details []string
	for _, ev := range rt.trace.Events(int64(id)) {
		if ev.Kind == obs.EvEarlyRead {
			details = append(details, ev.Detail)
		}
	}
	return details
}

// capRead is one side of a twin comparison: it issues query id on twin —
// a second runtime built exactly like the one under test — and reads it
// at hardCap with the early path shut (floor = hardCap), the way the old
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

// TestAwaitQueryResultConvergesEarly pins the counted read: on a
// single-process fleet the result is read the moment nothing of the query
// is outstanding — traced "counted", before the cap — and it is what the
// old sleep-out-the-deadline read returns on a twin fleet, for COUNT and
// MIN alike.
func TestAwaitQueryResultConvergesEarly(t *testing.T) {
	hop := raceSlowdown * 5 * time.Millisecond
	rt, spec := newWildfireEngine(t, 30, hop)
	twin, _ := newWildfireEngine(t, 30, hop)
	floor, settle, hardCap := rt.AwaitBracket(spec.Deadline())
	const queries = 6
	var late [queries + 1]func() float64
	for id := QueryID(1); id <= queries; id++ {
		late[id] = capRead(t, twin, id, spec.Hq, hardCap)
	}
	for id := QueryID(1); id <= queries; id++ {
		if _, err := rt.StartQuery(id); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		v, ok, err := rt.AwaitQueryResult(id, spec.Hq, floor, settle, hardCap)
		elapsed := time.Since(start)
		if err != nil || !ok {
			t.Fatalf("query %d: await failed: v=%v ok=%v err=%v", id, v, ok, err)
		}
		if elapsed >= hardCap {
			t.Fatalf("query %d took %v of a %v cap; the counted read never bit", id, elapsed, hardCap)
		}
		if got := earlyReadDetails(rt, id); len(got) != 1 || got[0] != "counted" {
			t.Fatalf("query %d: early-read trace events %q, want one \"counted\"", id, got)
		}
		// The early read must be the converged value: what the twin, left
		// running to the protocol deadline, declares there.
		if late := late[id](); late != v {
			t.Fatalf("query %d: counted read %v differs from deadline read %v; declared too soon", id, v, late)
		}
	}
	if n := rt.met.earlyReads.Value(); n != queries {
		t.Fatalf("node_early_reads_total = %d after %d counted reads", n, queries)
	}
	// floor = hardCap shuts the early path however long a query has been
	// idle: every read of the twin waited for the cap.
	if early, capped := twin.met.earlyReads.Value(), twin.met.deadlineReads.Value(); early != 0 || capped != queries {
		t.Fatalf("twin's early/deadline reads = %d/%d after %d floor = hardCap reads", early, capped, queries)
	}
}

// rearmer keeps one timer armed forever: a query that never goes idle.
type rearmer struct{}

func (rearmer) Start(ctx *sim.Context)            { ctx.SetTimer(ctx.Now()+1, 0) }
func (rearmer) Receive(*sim.Context, sim.Message) {}
func (rearmer) Timer(ctx *sim.Context, _ int)     { ctx.SetTimer(ctx.Now()+1, 0) }

// TestAwaitQueryResultHonorsHardCap runs a query whose handler re-arms its
// own timer from every firing, so something is always outstanding: the
// read must fall back to the cap, exactly the old deadline semantics.
func TestAwaitQueryResultHonorsHardCap(t *testing.T) {
	hop := raceSlowdown * 5 * time.Millisecond
	rt := newFabricatedEngine(t, line(2), hop, func(QueryID) *QueryInstance {
		return &QueryInstance{Handlers: []sim.Handler{rearmer{}, rearmer{}}}
	})
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	cap := 10 * hop
	start := time.Now()
	_, ok, err := rt.AwaitQueryResult(1, 0, 0, 0, cap)
	elapsed := time.Since(start)
	if err != nil || !ok {
		t.Fatalf("capped await failed: ok=%v err=%v", ok, err)
	}
	if elapsed < cap {
		t.Fatalf("await returned after %v, before its %v hard cap, with a timer still armed", elapsed, cap)
	}
	if early, capped := rt.met.earlyReads.Value(), rt.met.deadlineReads.Value(); early != 0 || capped != 1 {
		t.Fatalf("early/deadline reads = %d/%d, want 0/1", early, capped)
	}
}

// TestCountedReadWaitsForProtocolTimers runs a protocol that terminates on
// timers, not on silence: SPANNINGTREE is quiet from the end of its
// broadcast until the level schedule fires, at (2D̂−l)δ. An armed timer is
// outstanding work, so the counted read must not mistake that silence for
// the end — on a star every leaf reports straight to h_q, and the answer is
// the full count or the read came too soon.
func TestCountedReadWaitsForProtocolTimers(t *testing.T) {
	hop := raceSlowdown * 5 * time.Millisecond
	const hosts = 6
	g := graph.New(hosts)
	for h := graph.HostID(1); h < hosts; h++ {
		g.AddEdge(0, h)
	}
	g.SortAdjacency()
	q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: 4, Params: fmParams}
	rt := chanRuntime(t, g, nil, hop)
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		return BuildInstance(rt, protocol.NewSpanningTree(q), QuerySeed(1, id))
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	floor, settle, hardCap := rt.AwaitBracket(q.Deadline())
	start := time.Now()
	v, ok, err := rt.AwaitQueryResult(1, q.Hq, floor, settle, hardCap)
	elapsed := time.Since(start)
	if err != nil || !ok {
		t.Fatalf("await failed: ok=%v err=%v", ok, err)
	}
	if v != hosts {
		t.Fatalf("SPANNINGTREE count read as %v after %v, want %d: read before the reports were in", v, elapsed, hosts)
	}
	if elapsed >= hardCap {
		t.Fatalf("read after %v, at the %v cap: the reports were in long before", elapsed, hardCap)
	}
}

// TestLateJoinDoesNotHoldTheRead schedules a join long after WILDFIRE has
// converged. A pending membership transition is not outstanding work: the
// read returns before the join fires, its answer sits inside the oracle's
// bounds for the full interval, and the released query is unreachable from
// the timer heap — the join and the retire/compact backstop, all still
// armed, name it by id.
func TestLateJoinDoesNotHoldTheRead(t *testing.T) {
	hop := raceSlowdown * 5 * time.Millisecond
	const hosts, joinTick = 5, 60
	g := line(hosts)
	q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: 32, Params: fmParams}
	tl := churn.Timeline{{H: hosts - 1, T: joinTick, Kind: churn.Join}}
	rt := chanRuntime(t, g, nil, hop)
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		inst, err := BuildInstance(rt, protocol.NewWildfire(q), QuerySeed(1, id))
		if err == nil {
			inst.Churn = tl
		}
		return inst, err
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	qs := rt.lookupQuery(1)
	floor, settle, hardCap := rt.AwaitBracket(q.Deadline())
	start := time.Now()
	v, ok, err := rt.AwaitQueryResult(1, q.Hq, floor, settle, hardCap)
	elapsed := time.Since(start)
	if err != nil || !ok {
		t.Fatalf("await failed: ok=%v err=%v", ok, err)
	}
	if elapsed >= joinTick*hop {
		t.Fatalf("read after %v: it waited for the join at %v", elapsed, joinTick*hop)
	}
	b := oracle.Compute(g, make([]int64, hosts), q.Hq, tl, q.Deadline(), q.Kind)
	if !b.ValidFactor(v, oracle.FMSlack(q.Kind, fmParams.Vectors)) {
		t.Fatalf("answer %.2f outside the full interval's bounds q(H_C)=%.2f q(H_U)=%.2f", v, b.LowerValue, b.UpperValue)
	}
	rt.tmu.Lock()
	defer rt.tmu.Unlock()
	byID := 0
	for _, e := range rt.theap {
		if e.qs == qs {
			t.Fatalf("timer-heap entry of kind %d still holds the released query's state", e.kind)
		}
		if e.id == 1 {
			byID++
		}
	}
	if byID != 4 { // the join, tkRetire, and two tkCompact (the backstop's and release's)
		t.Fatalf("%d heap entries name query 1, want 4", byID)
	}
}

// TestLocalFrameAccounting pins sent = delivered + dropped for frames to a
// local host, which the counted read stands on: whatever swallows a frame
// takes it off the books, so the read is early, never at the cap. One frame
// is in flight — on a pipe four hops long — when its destination's Leave
// lands at tick 1; the other goes to a host the instance has no handler for.
func TestLocalFrameAccounting(t *testing.T) {
	hop := raceSlowdown * 5 * time.Millisecond
	leaveInFlight := newFabricatedEngineOver(t, line(2), transport.NewChannel(2, 4*hop), hop, func(QueryID) *QueryInstance {
		return &QueryInstance{
			Handlers: []sim.Handler{&pinger{to: 1}, &payloadRecorder{}},
			Churn:    churn.Timeline{{H: 1, T: 1}},
		}
	})
	noHandler := newFabricatedEngine(t, line(2), hop, func(QueryID) *QueryInstance {
		return &QueryInstance{Handlers: []sim.Handler{&pinger{to: 1}, nil}}
	})

	for _, c := range []struct {
		name   string
		rt     *Runtime
		reason *obs.Counter
	}{
		{"leave in flight", leaveInFlight, leaveInFlight.met.dropQueryDead},
		{"no handler", noHandler, noHandler.met.dropUnknown},
	} {
		if _, err := c.rt.StartQuery(1); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, ok, err := c.rt.AwaitQueryResult(1, 0, 0, 0, time.Minute); err != nil || !ok {
			t.Fatalf("%s: await failed: ok=%v err=%v", c.name, ok, err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("%s: read after %v, the dropped frame stayed on the books", c.name, elapsed)
		}
		if n := c.rt.lookupQuery(1).inflight.Load(); n != 0 {
			t.Fatalf("%s: %d items outstanding after the read, want 0", c.name, n)
		}
		st, _ := c.rt.QueryStats(1)
		if st.MessagesSent != 1 || st.MessagesDropped != 1 || st.MessagesDelivered != 0 {
			t.Fatalf("%s: sent/delivered/dropped = %d/%d/%d, want 1/0/1",
				c.name, st.MessagesSent, st.MessagesDelivered, st.MessagesDropped)
		}
		if n := c.reason.Value(); n != 1 {
			t.Fatalf("%s: drop counted %d times under its reason, want 1", c.name, n)
		}
	}
}

// TestResultFloorPolicy pins the soundness split of adaptive reads: a
// fully local runtime counts its outstanding work and needs no floor at
// all, but a sharded one must wait out the protocol deadline — remote
// workers still materializing instances are indistinguishable from a
// converged fleet in the local counters (the bug this policy fixed showed
// windows read at one sweep over TCP declaring a third of the true count).
func TestResultFloorPolicy(t *testing.T) {
	hop := 5 * time.Millisecond
	g := topology.Generate(topology.Random, 20, 1)
	all, err := New(Config{Graph: g, Transport: transport.NewChannel(20, hop/2), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	if got := all.ResultFloor(24); got != 0 {
		t.Fatalf("all-local floor = %v, want none: the read is counted", got)
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
