package node

import (
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
// answers recycleSpec queries and remembers each query's Wildfire.
type recycleEngine struct {
	*Runtime
	mu  sync.Mutex
	wfs map[QueryID]*protocol.Wildfire
}

func newRecycleEngine(t *testing.T) *recycleEngine {
	t.Helper()
	g := line(5)
	rt, err := New(Config{
		Graph: g, Values: []int64{40, 10, 30, 20, 50},
		Transport: transport.NewChannel(g.Len(), recycleHop/2), Hop: recycleHop,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &recycleEngine{Runtime: rt, wfs: map[QueryID]*protocol.Wildfire{}}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		w := protocol.NewWildfire(recycleSpec(id))
		e.mu.Lock()
		e.wfs[id] = w
		e.mu.Unlock()
		return BuildInstance(rt, w, QuerySeed(23, id))
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return e
}

// outcome is what a query left at h_q: its final partial and the messages
// its hosts sent.
type outcome struct {
	partial agg.Partial
	sent    int64
}

// start issues query id and returns its handlers.
func (e *recycleEngine) start(t *testing.T, id QueryID) []sim.Handler {
	t.Helper()
	inst, err := e.StartQuery(id)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Handlers
}

// finish waits for query id to go idle, copies h_q's partial while the
// query still owns it, then answers the query — which retires it — and
// checks that the Wildfire the test still holds declares nothing after.
func (e *recycleEngine) finish(t *testing.T, id QueryID) outcome {
	t.Helper()
	qs := e.lookupQuery(id)
	select {
	case <-qs.idle:
	case <-time.After(10 * time.Second):
		t.Fatalf("query %d never went idle", id)
	}
	e.mu.Lock()
	w := e.wfs[id]
	e.mu.Unlock()
	var out outcome
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
	floor, settle, hardCap := e.AwaitBracket(recycleSpec(id).Deadline())
	if _, ok, err := e.AwaitQueryResult(id, 0, floor, settle, hardCap); err != nil || !ok {
		t.Fatalf("query %d: await failed: ok=%v err=%v", id, ok, err)
	}
	st, _ := e.QueryStats(id)
	out.sent = st.MessagesSent
	// The answer dispatched h_q's itemRetire onto its shard's queue; this
	// read queues behind it.
	var declared bool
	if err := e.Do(0, func() { _, declared = w.Result() }); err != nil {
		t.Fatal(err)
	}
	if declared {
		t.Errorf("query %d: its Wildfire still declares a result after retirement", id)
	}
	return out
}

func (e *recycleEngine) answer(t *testing.T, id QueryID) outcome {
	t.Helper()
	e.start(t, id)
	return e.finish(t, id)
}

func sameOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if !got.partial.Equal(want.partial) || got.sent != want.sent {
		t.Errorf("%s: h_q's partial %v after %d messages, a fresh runtime's %v after %d",
			what, got.partial.Result(), got.sent, want.partial.Result(), want.sent)
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
// next has started — and holds the pool to its contract: no handler is
// ever held by two live queries, though retired ones come back.
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
