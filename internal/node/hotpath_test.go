package node

import (
	"math"
	gort "runtime"
	"runtime/debug"
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
)

// A host's activation sketch — its own FM coins — must not depend on
// which process serves it: for every host they share, a runtime serving
// all hosts and one serving only that host toss identical coins. On the
// all-host runtime the query takes hq's neighbors out at tick 0, so on
// both nothing reaches hq and its partial is its activation sketch.
func TestActivationSketchIndependentOfSharding(t *testing.T) {
	g := topology.NewRandom(30, 4, 23)
	// activate issues query id = hq+1 at hq on a runtime serving local and
	// returns hq's partial once its Start has activated it.
	activate := func(local []graph.HostID, hq graph.HostID) *agg.Partial {
		rt, err := New(Config{Graph: g, Transport: transport.NewChannel(g.Len(), 0), Local: local})
		if err != nil {
			t.Fatal(err)
		}
		q := protocol.Query{Kind: agg.Count, Hq: hq, DHat: 4, Params: agg.Params{Vectors: 64, Bits: 32}}
		w := protocol.NewWildfire(q)
		var isolate churn.Timeline
		for _, n := range g.Neighbors(hq) {
			isolate = append(isolate, churn.Event{H: n, T: 0})
		}
		rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
			inst, err := BuildInstance(rt, w, QuerySeed(23, id))
			if err == nil {
				inst.Churn = isolate
			}
			return inst, err
		})
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
		if _, err := rt.StartQuery(QueryID(hq) + 1); err != nil {
			t.Fatal(err)
		}
		var initial *agg.Partial
		// Do queues behind hq's Start on hq's shard worker.
		if err := rt.Do(hq, func() {
			if p := w.Partial(); p != nil {
				initial = p.Clone()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if initial == nil || initial.Result() == 0 {
			t.Fatalf("host %d did not activate with a non-empty sketch", hq)
		}
		return initial
	}
	var prev *agg.Partial
	for hq := graph.HostID(10); hq < 20; hq++ {
		all, shard := activate(nil, hq), activate([]graph.HostID{hq}, hq)
		if !all.Equal(shard) {
			t.Errorf("host %d tosses different coins all-local and sharded", hq)
		}
		if prev != nil && prev.Equal(all) {
			t.Errorf("hosts %d and %d toss identical coins", hq-1, hq)
		}
		prev = all
	}
}

// relay is the alloc guard's handler: a delivered frame arms an
// end-of-round timer, whose firing forwards the frame to the peer — the
// receive → flush → send shape of every WILDFIRE round — until the hop
// budget the frame carries runs out.
type relay struct {
	peer graph.HostID
	hops int
	msg  any
	done chan struct{}
}

func (r *relay) Start(*sim.Context) {}
func (r *relay) Receive(ctx *sim.Context, msg sim.Message) {
	r.hops, r.msg = msg.Chain(), msg.Payload
	ctx.SetTimer(ctx.Now(), 1)
}

func (r *relay) Timer(ctx *sim.Context, _ int) {
	if r.hops >= relayHops {
		r.done <- struct{}{}
		return
	}
	ctx.Send(r.peer, r.msg)
}

const relayHops = 64

// TestFramePathAllocations pins the engine's per-frame garbage on the
// chan transport: transport send → ring → delivery → shard queue →
// Receive on the worker's reused context → timer heap → Timer → send.
// Nothing on that path allocates: the delivery queue is a ring, the
// callback context is reused in place, and the timer heap's entries cycle
// through a freelist.
func TestFramePathAllocations(t *testing.T) {
	if raceSlowdown > 1 {
		t.Skip("the race detector allocates on its own")
	}
	g := line(2)
	tr := transport.NewChannel(2, 0)
	rt, err := New(Config{Graph: g, Transport: tr, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 1) // cap 1: one signal per measured run
	handlers := make([]sim.Handler, 2)
	for h := graph.HostID(0); h < 2; h++ {
		handlers[h] = &relay{peer: 1 - h, done: done}
	}
	startHandlers(t, rt, handlers)
	defer rt.Stop()
	payload := any("frame") // boxed once, outside the measurement
	perRun := testing.AllocsPerRun(50, func() {
		if err := tr.Send(transport.Message{From: 1, To: 0, Query: 1, Chain: 1, Payload: payload}); err != nil {
			t.Error(err)
		}
		<-done
	})
	perFrame := perRun / relayHops
	t.Logf("%.2f allocations per frame (%.0f per %d-frame run)", perFrame, perRun, relayHops)
	if perFrame > 0.25 { // 7.00 before the ring and the reused context; 1.00 before the timer freelist
		t.Fatalf("%.2f allocations per frame on the chan engine, want 0", perFrame)
	}
}

// queryAllocBudget is what TestWildfireQueryAllocBytes allows a query to
// allocate per served host, in bytes: 1.25× the 22 its least window reads
// at the top of its range (12–22 over forty runs, idle and beside a -race
// test loop) once a query is built in the storage a retired one handed
// back (~105 while hosts and coin streams went through sync.Pools; ~550
// while every query built them fresh; ~1,150 while each host also kept its
// last snapshot and activation kept a clone).
const queryAllocBudget = 28

// TestWildfireQueryAllocBytes is the end-to-end allocation budget of a
// query: a warm, all-local chan runtime on a 256-host random graph answers
// WILDFIRE COUNT queries at c = 64 in windows of five, and the bytes the
// process allocates over a window, per query and served host, must stay
// inside queryAllocBudget. Neither the frames a query floods nor its
// per-host state — handlers, partials, coin streams, rebuilt in place in
// the slab the last retired query handed back — allocate; what is left is
// the query's per-host counters and the snapshot pool's refills.
func TestWildfireQueryAllocBytes(t *testing.T) {
	const hosts = 256
	perHost := leastQueryWindow(t, hosts, nil, []agg.Kind{agg.Count}, "bytes allocated per query per served host",
		func(before, after *gort.MemStats) float64 { return float64(after.TotalAlloc-before.TotalAlloc) / hosts })
	if perHost > queryAllocBudget {
		t.Fatalf("%.0f bytes allocated per query per served host, budget %d", perHost, queryAllocBudget)
	}
}

// churnedQueryAllocBudget is what TestChurnedQueryAllocs allows a warm
// churned query to allocate, in objects: the least window read 37–40 over
// ten idle runs, and 822 while every frame dropped at a departed host kept
// its snapshot from the pool and the timeline's index was built of maps.
const churnedQueryAllocBudget = 80

// TestChurnedQueryAllocs pins the objects a warm query allocates when its
// timeline churns: 60 hosts, each query with its own timeline of session
// departures and rejoins. Frames that meet a departed host hand their
// snapshot back to the pool as received ones do, and the timeline's index
// is a few flat arrays.
func TestChurnedQueryAllocs(t *testing.T) {
	const hosts = 60
	src := churn.Sessions{N: hosts, Mean: 20, Rejoin: 4}
	perQuery := leastQueryWindow(t, hosts, src, []agg.Kind{agg.Count}, "objects allocated per churned query", objects)
	if perQuery > churnedQueryAllocBudget {
		t.Fatalf("%.0f objects allocated per churned query, budget %d", perQuery, churnedQueryAllocBudget)
	}
}

// objects reads a window's allocated objects.
func objects(before, after *gort.MemStats) float64 { return float64(after.Mallocs - before.Mallocs) }

// mixedQueryAllocMargin is what TestMixedAggregateQueryAllocs allows a
// query that alternates aggregates to allocate beyond the costlier of the
// single-kind streams, in objects. The mixed stream read 71 against 24 for
// COUNT alone and 21 for MIN alone while a partial of one kind could not
// hold the other, so every host's partial was rebuilt on each switch; 20
// against 18 and 21 once it could.
const mixedQueryAllocMargin = 10

// TestMixedAggregateQueryAllocs pins what a recycled slab keeps when the
// aggregate changes from one query to the next: on a warm 60-host chan
// runtime, queries that alternate COUNT and MIN allocate, per query,
// within mixedQueryAllocMargin objects of the costlier of the COUNT-only
// and MIN-only streams. Every host's partial and every pooled snapshot's
// is rebuilt in place, whatever kind it held.
func TestMixedAggregateQueryAllocs(t *testing.T) {
	const hosts = 60
	count := leastQueryWindow(t, hosts, nil, []agg.Kind{agg.Count}, "objects per COUNT query", objects)
	minimum := leastQueryWindow(t, hosts, nil, []agg.Kind{agg.Min}, "objects per MIN query", objects)
	mixed := leastQueryWindow(t, hosts, nil, []agg.Kind{agg.Count, agg.Min}, "objects per query, COUNT and MIN alternating", objects)
	if limit := max(count, minimum) + mixedQueryAllocMargin; mixed > limit {
		t.Fatalf("%.0f objects per query when COUNT and MIN alternate, %.0f for COUNT alone and %.0f for MIN alone: over %.0f",
			mixed, count, minimum, limit)
	}
}

// leastQueryWindow answers WILDFIRE queries at c = 64 with h_q = 0 on a
// warm, all-local chan runtime over a random graph of the given size, each
// query under the timeline src draws for it (none if src is nil) and of
// the aggregate kinds[id mod len(kinds)], in five windows of five queries,
// and returns the least window's read per query.
//
// Buffers that only grow — the delivery ring, the timer heap — double
// when a query's flood runs deeper than any before it, which a loaded box
// can cause at any query; one such doubling inside a window reads as
// ~200 B a host, and so can the snapshot pool's chains when frames move
// between Ps. So the reading is the least of five windows: a one-off
// growth lands in some, a per-query cost in all.
func leastQueryWindow(t *testing.T, hosts int, src churn.Source, kinds []agg.Kind, unit string, read func(before, after *gort.MemStats) float64) float64 {
	t.Helper()
	if raceSlowdown > 1 {
		t.Skip("the race detector allocates on its own")
	}
	const queries, windows, hop = 5, 5, 5 * time.Millisecond
	g := topology.NewRandom(hosts, 5, 23)
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(hosts, hop/2), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: g.Diameter(nil) + 2, Params: fmParams}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		q := q
		q.Kind = kinds[int(id)%len(kinds)]
		inst, err := BuildInstance(rt, protocol.NewWildfire(q), QuerySeed(23, id))
		if err == nil && src != nil {
			inst.Churn = src.Schedule(churn.QuerySeed(23, int64(id)), q.Hq, q.Deadline())
		}
		return inst, err
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	floor, settle, hardCap := rt.AwaitBracket(q.Deadline())
	answer := func(id QueryID) {
		if _, err := rt.StartQuery(id); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := rt.AwaitQueryResult(id, q.Hq, floor, settle, hardCap); err != nil || !ok {
			t.Fatalf("query %d declared nothing (ok=%t, err=%v)", id, ok, err)
		}
	}
	// A collection empties the snapshot pool, so one landing inside the
	// measurement would charge these queries for refilling it: the
	// collector stays off from the warm-up query on.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm, one query of each kind: a slab, the snapshot pool, timer
	// freelist, delivery ring, shard queues.
	id := QueryID(1)
	for ; id <= QueryID(len(kinds)); id++ {
		answer(id)
	}
	least := math.Inf(1)
	for w := 0; w < windows; w++ {
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		for end := id + queries; id < end; id++ {
			answer(id)
		}
		gort.ReadMemStats(&after)
		reading := read(&before, &after) / queries
		t.Logf("window %d: %.0f %s", w, reading, unit)
		least = min(least, reading)
	}
	return least
}
