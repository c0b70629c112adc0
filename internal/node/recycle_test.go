package node

import (
	"slices"
	"sync"
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/transport"
)

// recycleHop is the recycling tests' δ. Their answers are compared message
// for message, which holds on a path with h_q at one end: there every
// frame a host receives lands at least 3δ/4 away from its flush, so the
// rounds do not depend on how the wall clock interleaves them.
const recycleHop = raceSlowdown * 20 * time.Millisecond

// recycleSpec is query id's spec: MIN at c = 8, COUNT at c = 64 and COUNT
// at c = 8 over 16-bit vectors, in turn, so each query takes hosts a
// query of another kind or other sketch dimensions handed back.
func recycleSpec(id QueryID) protocol.Query {
	i := int(id-1) % 3
	return protocol.Query{
		Kind:   []agg.Kind{agg.Min, agg.Count, agg.Count}[i],
		Hq:     0,
		DHat:   6,
		Params: []agg.Params{{Vectors: 8, Bits: 32}, {Vectors: 64, Bits: 32}, {Vectors: 8, Bits: 16}}[i],
	}
}

// recycleEngine is an all-local chan runtime on the path 0-1-2-3-4 that
// answers recycleSpec queries — WILDFIRE's, or SpanningTree's for the ids
// in spanning — and remembers each query's protocol.
type recycleEngine struct {
	*Runtime
	spanning map[QueryID]bool
	mu       sync.Mutex
	protos   map[QueryID]protocol.Protocol
}

func newRecycleEngine(t *testing.T, spanning ...QueryID) *recycleEngine {
	t.Helper()
	g := line(5)
	rt, err := New(Config{
		Graph: g, Values: []int64{40, 10, 30, 20, 50},
		Transport: transport.NewChannel(g.Len(), recycleHop/2), Hop: recycleHop,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &recycleEngine{Runtime: rt, spanning: map[QueryID]bool{}, protos: map[QueryID]protocol.Protocol{}}
	for _, id := range spanning {
		e.spanning[id] = true
	}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		var p protocol.Protocol = protocol.NewWildfire(recycleSpec(id))
		if e.spanning[id] {
			p = protocol.NewSpanningTree(recycleSpec(id))
		}
		e.mu.Lock()
		e.protos[id] = p
		e.mu.Unlock()
		return BuildInstance(rt, p, QuerySeed(23, id))
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return e
}

func (e *recycleEngine) proto(id QueryID) protocol.Protocol {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.protos[id]
}

// outcome is what a query left: its answer, h_q's final partial (for
// WILDFIRE) and the messages its hosts sent.
type outcome struct {
	v       float64
	partial agg.Partial
	sent    int64
}

// start issues query id and returns a copy of its handlers: the instance's
// own slice serves a later query once this one retires.
func (e *recycleEngine) start(t *testing.T, id QueryID) []sim.Handler {
	t.Helper()
	inst, err := e.StartQuery(id)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Clone(inst.Handlers)
}

// finish waits for query id to go idle, copies h_q's partial while the
// query still owns it, then answers the query — which retires it — and
// waits for its storage to be back on the free list. The protocol the
// test still holds must then report that answer or nothing.
func (e *recycleEngine) finish(t *testing.T, id QueryID) outcome {
	t.Helper()
	qs := e.lookupQuery(id)
	select {
	case <-qs.idle:
	case <-time.After(10 * time.Second):
		t.Fatalf("query %d never went idle", id)
	}
	p := e.proto(id)
	var out outcome
	if w, ok := p.(*protocol.Wildfire); ok {
		if err := e.Do(0, func() {
			if p := w.Partial(); p != nil {
				out.partial = p.Clone()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if out.partial == nil {
			t.Fatalf("query %d: h_q holds no partial", id)
		}
	}
	floor, settle, hardCap := e.AwaitBracket(recycleSpec(id).Deadline())
	v, ok, err := e.AwaitQueryResult(id, 0, floor, settle, hardCap)
	if err != nil || !ok {
		t.Fatalf("query %d: await failed: ok=%v err=%v", id, ok, err)
	}
	st, _ := e.QueryStats(id)
	out.v, out.sent = v, st.MessagesSent
	e.drain(t)
	if got, declared := p.Result(); declared && got != v {
		t.Errorf("query %d: its held protocol declares %v, not its answer %v", id, got, v)
	}
	return out
}

// drain returns once every local host's worker has run what was queued
// for it: the itemRetires of the queries answered so far, and with the
// last of each the recycling of that query's storage.
func (e *recycleEngine) drain(t *testing.T) {
	t.Helper()
	for _, h := range e.localHosts {
		if err := e.Do(h, func() {}); err != nil {
			t.Fatal(err)
		}
	}
}

func (e *recycleEngine) answer(t *testing.T, id QueryID) outcome {
	t.Helper()
	e.start(t, id)
	return e.finish(t, id)
}

func sameOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if got.v != want.v || !got.partial.Equal(want.partial) || got.sent != want.sent {
		t.Errorf("%s: answered %v after %d messages, a fresh runtime %v after %d",
			what, got.v, got.sent, want.v, want.sent)
	}
}

// TestRecycledHostsAnswerLikeFresh answers MIN at c = 8, then COUNT at
// c = 64, then COUNT at c = 8 over 16-bit vectors on one runtime, so the
// last query runs on host state two retired queries of another kind and
// other dimensions handed back. Its h_q partial and its message count are
// a fresh runtime's.
func TestRecycledHostsAnswerLikeFresh(t *testing.T) {
	e := newRecycleEngine(t)
	e.answer(t, 1)
	e.answer(t, 2)
	sameOutcome(t, "query 3", e.answer(t, 3), newRecycleEngine(t).answer(t, 3))
}

// TestRecycledHostsAnswerLikeFreshOverlapping is the same check with two
// queries in flight at once: A (COUNT at c = 64) retires while B (COUNT at
// c = 8) is mid-flood, and a third query takes A's hosts back before B
// answers. A and B each answer as a fresh runtime does.
func TestRecycledHostsAnswerLikeFreshOverlapping(t *testing.T) {
	e := newRecycleEngine(t)
	e.answer(t, 1)
	e.start(t, 5)
	time.Sleep(2 * recycleHop) // B starts with A two hops into its ~5δ flood
	e.start(t, 6)
	a := e.finish(t, 5)
	e.start(t, 7)
	b := e.finish(t, 6)
	e.finish(t, 7)
	sameOutcome(t, "query A", a, newRecycleEngine(t).answer(t, 5))
	sameOutcome(t, "query B", b, newRecycleEngine(t).answer(t, 6))
}

// TestNoHostServesTwoLiveQueries rolls queries through one runtime two at
// a time — each starts while the one before is live and retires once the
// next has started — and holds the free list to its contract: no handler
// is ever held by two live queries, though retired ones come back.
func TestNoHostServesTwoLiveQueries(t *testing.T) {
	e := newRecycleEngine(t)
	owner, ever := map[sim.Handler]QueryID{}, map[sim.Handler]bool{}
	reused := false
	take := func(id QueryID) {
		for _, hd := range e.start(t, id) {
			if other, live := owner[hd]; live {
				t.Fatalf("query %d got the handler live query %d holds", id, other)
			}
			reused = reused || ever[hd]
			owner[hd], ever[hd] = id, true
		}
	}
	take(1)
	for id := QueryID(2); id <= 8; id++ {
		take(id)
		e.finish(t, id-1)
		for hd, q := range owner {
			if q == id-1 {
				delete(owner, hd)
			}
		}
	}
	e.finish(t, 8)
	if !reused {
		t.Fatal("no query took a handler a retired query handed back")
	}
}

// TestRecycleAcrossProtocols runs WILDFIRE, then SpanningTree, then
// WILDFIRE on one runtime. SpanningTree cannot take WILDFIRE hosts over,
// so the third query builds fresh ones: it shares no handler with the
// first, and every answer is right — SpanningTree's the path's minimum,
// the last query's a fresh runtime's. (SpanningTree runs MIN: its level
// schedule assumes one clock, so on the engine a COUNT may miss the far
// end of the path.)
func TestRecycleAcrossProtocols(t *testing.T) {
	e := newRecycleEngine(t, 4)
	first := e.start(t, 1)
	e.finish(t, 1)
	e.start(t, 4)
	if got := e.finish(t, 4); got.v != 10 {
		t.Errorf("SpanningTree's minimum of the path is %v, want 10", got.v)
	}
	for h, hd := range e.start(t, 3) {
		if hd != nil && hd == first[h] {
			t.Fatalf("host %d: the WILDFIRE query after SpanningTree runs on the WILDFIRE query's host state", h)
		}
	}
	sameOutcome(t, "query 3", e.finish(t, 3), newRecycleEngine(t).answer(t, 3))
}

// TestHeldWildfireSeesNoLaterQuery keeps query 1's Wildfire past its
// answer while query 4, of the same kind, takes its hosts over: from that
// build on, through query 4's flood and past its answer, the held Wildfire
// declares nothing and exposes no partial.
func TestHeldWildfireSeesNoLaterQuery(t *testing.T) {
	e := newRecycleEngine(t)
	first := e.start(t, 1)
	e.finish(t, 1)
	held := e.proto(1).(*protocol.Wildfire)
	later := e.start(t, 4)
	if !slices.Equal(later, first) {
		t.Fatal("query 4 did not take over query 1's hosts")
	}
	check := func(when string) {
		t.Helper()
		if v, ok := held.Result(); ok || held.Partial() != nil {
			t.Fatalf("%s: query 1's Wildfire declares %v", when, v)
		}
	}
	check("query 4 in flight")
	e.finish(t, 4)
	check("query 4 answered")
}

// blockOnReceive is a two-host query whose host 0 sends host 1 one frame,
// and host 1's Receive holds its shard worker until release closes.
type blockOnReceive struct{ entered, release chan struct{} }

func (b *blockOnReceive) Start(ctx *sim.Context) {
	if ctx.Self() == 0 {
		ctx.Send(1, "ping")
	}
}
func (b *blockOnReceive) Receive(*sim.Context, sim.Message) { close(b.entered); <-b.release }
func (b *blockOnReceive) Timer(*sim.Context, int)           {}

// TestSlabWaitsForRunningCallback retires a query while host 1, on its
// own shard, is still inside a callback of it: host 0's itemRetire runs at
// once, but the query's storage reaches the free list only after host 1's
// callback has returned and its own itemRetire has run.
func TestSlabWaitsForRunningCallback(t *testing.T) {
	rt, err := New(Config{Graph: line(2), Transport: transport.NewChannel(2, 0), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := &blockOnReceive{entered: make(chan struct{}), release: make(chan struct{})}
	startInstance(t, rt, &QueryInstance{Handlers: []sim.Handler{b, b}, Deadline: 1000})
	defer rt.Stop()
	<-b.entered
	rt.retire(rt.lookupQuery(1), "test")
	if err := rt.Do(0, func() {}); err != nil { // queued behind host 0's itemRetire
		t.Fatal(err)
	}
	if n := len(rt.slabs); n != 0 {
		t.Fatalf("the storage went back with host 1 still in a callback (%d free)", n)
	}
	close(b.release)
	if err := rt.Do(1, func() {}); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.slabs); n != 1 {
		t.Fatalf("%d slabs free once every host retired, want 1", n)
	}
}

// TestFreeListBounded answers eight overlapping queries on one runtime.
// Each retirement hands its storage back with nothing built in between,
// and the free list keeps slabCap of them, never more.
func TestFreeListBounded(t *testing.T) {
	e := newRecycleEngine(t)
	const queries = 8
	for id := QueryID(1); id <= queries; id++ {
		e.start(t, id)
	}
	for id := QueryID(1); id <= queries; id++ {
		e.finish(t, id)
		if n, want := len(e.slabs), min(int(id), slabCap); n != want {
			t.Fatalf("%d queries retired: %d slabs free, want %d", id, n, want)
		}
	}
	e.start(t, queries+1)
	if n := len(e.slabs); n != slabCap-1 {
		t.Fatalf("a build left %d slabs free, want %d", n, slabCap-1)
	}
	e.finish(t, queries+1)
}
