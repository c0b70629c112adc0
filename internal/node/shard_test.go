package node

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/sim"
	"validity/internal/transport"
)

// orderProbe is a handler asserting the shard scheduler's correctness
// invariant at one host: callbacks arrive in enqueue order and never run
// concurrently. `next` is a deliberately plain (non-atomic) field — under
// `go test -race`, two shard workers touching the same host would trip
// the race detector even if the CAS guard happened to miss the overlap.
//
// It also pins the reused-context contract: a shard worker hands every
// callback the same sim.Context, re-targeted, so for the whole of a
// callback the context must name this host (its coin stream follows from
// that: the backend keys it by the context's host).
type orderProbe struct {
	h    graph.HostID
	busy atomic.Bool
	next int
	errs chan string
}

func (p *orderProbe) checkContext(ctx *sim.Context, when string) {
	if ctx.Self() != p.h {
		p.errs <- fmt.Sprintf("host %d: %s the callback the context names host %d", p.h, when, ctx.Self())
	}
}

func (p *orderProbe) Start(ctx *sim.Context) {}
func (p *orderProbe) Receive(ctx *sim.Context, msg sim.Message) {
	if !p.busy.CompareAndSwap(false, true) {
		p.errs <- fmt.Sprintf("host %d: concurrent callbacks", p.h)
		return
	}
	p.checkContext(ctx, "entering")
	if seq := msg.Payload.(int); seq != p.next {
		p.errs <- fmt.Sprintf("host %d: seq %d delivered, want %d (reorder)", p.h, seq, p.next)
	}
	p.next++
	p.checkContext(ctx, "leaving")
	p.busy.Store(false)
}
func (p *orderProbe) Timer(ctx *sim.Context, tag int) {}

// TestShardSerializationProperty is the property test for host-sharded
// execution: 16 hosts multiplexed onto 4 shard workers with a queue small
// enough to exercise back-pressure, each host fed an independent ordered
// message stream from its own producer goroutine. Every host must see its
// stream strictly in order with no concurrent callbacks (the plain `next`
// counter doubles as a race-detector tripwire) through a context that is
// its own for the duration of each callback, and a final Do per host —
// which serializes behind the host's queued callbacks — must observe the
// complete stream.
func TestShardSerializationProperty(t *testing.T) {
	const (
		hosts   = 16
		msgs    = 150
		nshards = 4
	)
	g := line(hosts)
	tr := transport.NewChannel(hosts, 0)
	rt, err := New(Config{
		Graph:      g,
		Transport:  tr,
		Hop:        time.Millisecond,
		Shards:     nshards,
		ShardQueue: 8, // force back-pressure and queue reuse
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Shards(); got != nshards {
		t.Fatalf("runtime has %d shards, want %d", got, nshards)
	}
	errs := make(chan string, 3*hosts*msgs) // room for every check of every callback to fail
	probes := make([]*orderProbe, hosts)
	handlers := make([]sim.Handler, hosts)
	for h := 0; h < hosts; h++ {
		p := &orderProbe{h: graph.HostID(h), errs: errs}
		probes[h], handlers[h] = p, p
	}
	startHandlers(t, rt, handlers)
	defer rt.Stop()

	// One producer per host: the channel transport's single delivery
	// scheduler preserves global send order, so each host's stream arrives
	// at its shard in sequence even while 16 streams interleave.
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h graph.HostID) {
			defer wg.Done()
			for seq := 0; seq < msgs; seq++ {
				if err := tr.Send(transport.Message{From: h, To: h, Query: 1, Payload: seq}); err != nil {
					errs <- fmt.Sprintf("host %d: send %d: %v", h, seq, err)
					return
				}
			}
		}(graph.HostID(h))
	}
	wg.Wait()

	// Do serializes behind everything already queued for the host, so when
	// it runs, the host's full stream must have been processed — and the
	// closure reads `next` from the shard worker, not the test goroutine.
	for h := 0; h < hosts; h++ {
		h := graph.HostID(h)
		deadline := time.Now().Add(10 * time.Second)
		for {
			var got int
			if err := rt.Do(h, func() { got = probes[h].next }); err != nil {
				t.Fatal(err)
			}
			if got == msgs {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("host %d processed %d/%d messages", h, got, msgs)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// gateHandler blocks its shard worker inside Receive until released
// whenever it receives a negative payload — the congested-host fixture —
// and records every other payload.
type gateHandler struct {
	entered chan struct{}
	release chan struct{}
	seen    []int
}

func (gh *gateHandler) Start(ctx *sim.Context) {}
func (gh *gateHandler) Receive(ctx *sim.Context, msg sim.Message) {
	if seq := msg.Payload.(int); seq >= 0 {
		gh.seen = append(gh.seen, seq)
		return
	}
	gh.entered <- struct{}{}
	<-gh.release
}
func (gh *gateHandler) Timer(ctx *sim.Context, tag int) {}

// TestDispatchCongestionDoesNotBlockTimers wedges one shard — its worker
// parked inside a handler, its queue full, dispatch spilling to the
// overflow list — and checks the two halves of the timer-loop contract:
// a timer owned by another shard still fires on time, and the congested
// shard's parked items drain in FIFO order once the handler returns. It
// wedges the shard twice: the second burst parks into the array the first
// one grew, every slot the drainer popped is zeroed, and once drained the
// shard's depth and node_overflow_parked read 0.
func TestDispatchCongestionDoesNotBlockTimers(t *testing.T) {
	const hop = raceSlowdown * 10 * time.Millisecond
	g := line(2)
	tr := transport.NewChannel(2, 0)
	reg := obs.NewRegistry()
	rt, err := New(Config{
		Graph:      g,
		Transport:  tr,
		Hop:        hop,
		Shards:     2, // host 0 → shard 0, host 1 → shard 1
		ShardQueue: 1,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateHandler{entered: make(chan struct{}), release: make(chan struct{})}
	fired := make(chan int, 1)
	startHandlers(t, rt, []sim.Handler{gate, &timerHandler{
		onStart: func(ctx *sim.Context) {},
		onTimer: func(tag int) { fired <- tag },
	}})
	defer rt.Stop()
	qs := rt.lookupQuery(1)
	s := rt.shards[rt.shardOf[0]]
	parkedGauge := func() float64 {
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == "node_overflow_parked" {
				return g.Value
			}
		}
		t.Fatal("no node_overflow_parked gauge")
		return 0
	}

	const parked = 10
	ovCap := 0
	for cycle := 0; cycle < 2; cycle++ {
		// Wedge shard 0: a negative payload parks the worker inside Receive...
		if err := tr.Send(transport.Message{From: 0, To: 0, Query: 1, Payload: -1}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("handler never entered")
		}
		// ...then timer-loop-style dispatches overfill its queue (cap 1) and
		// spill onto the overflow list. dispatch must return without
		// blocking — the test would hang here if it didn't.
		for i := 0; i < parked; i++ {
			rt.dispatch(0, item{kind: itemMsg, qs: qs, msg: transport.Message{
				From: 0, To: 0, Query: 1, Payload: cycle*parked + i,
			}})
		}
		if d := s.depth(); d < parked-2 {
			t.Fatalf("cycle %d: congested shard depth %d, want ≥ %d (overflow never engaged)", cycle, d, parked-2)
		}

		if cycle == 0 {
			// The other shard's timer must fire while shard 0 is wedged.
			rt.scheduleEntry(timerEntry{when: time.Now().Add(hop), kind: tkTimer, h: 1, qs: qs, tag: 7})
			select {
			case tag := <-fired:
				if tag != 7 {
					t.Fatalf("timer fired with tag %d, want 7", tag)
				}
			case <-time.After(10 * hop):
				t.Fatal("timer on the idle shard never fired: the timer loop blocked on the congested shard")
			}
		}

		// Release the wedge: queued and parked items must drain in FIFO
		// order, and the drainer must let go of the overflow.
		gate.release <- struct{}{}
		want := (cycle + 1) * parked
		deadline := time.Now().Add(10 * time.Second)
		for {
			var seen []int
			if err := rt.Do(0, func() { seen = append([]int(nil), gate.seen...) }); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			busy := s.busy
			s.mu.Unlock()
			if len(seen) == want && !busy {
				for i, v := range seen {
					if v != i {
						t.Fatalf("drained order %v: overflow items out of FIFO order", seen)
					}
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: congested shard drained %d/%d items (drainer busy: %t)", cycle, len(seen), want, busy)
			}
			time.Sleep(time.Millisecond)
		}

		s.mu.Lock()
		slots := s.ov[:cap(s.ov)]
		c := cap(s.ov)
		s.mu.Unlock()
		for i, it := range slots {
			if !reflect.ValueOf(it).IsZero() {
				t.Fatalf("cycle %d: drained overflow slot %d still holds %+v", cycle, i, it)
			}
		}
		if d, p := s.depth(), parkedGauge(); d != 0 || p != 0 {
			t.Fatalf("cycle %d: drained shard has depth %d, node_overflow_parked %v; want 0 and 0", cycle, d, p)
		}
		switch {
		case cycle == 0 && c == 0:
			t.Fatal("the first burst left the overflow without an array")
		case cycle == 1 && c > ovCap:
			t.Fatalf("the second burst grew the overflow's array from %d to %d slots", ovCap, c)
		}
		ovCap = c
	}
}

// TestDispatchOverflowAllocFree pins the overflow's array across bursts:
// once one burst has grown it, parking n more items behind a drainer and
// draining them allocates nothing. The drainer runs on the test goroutine
// here, over a queue with room for the whole burst, so the measurement
// sees dispatch and drainOverflow alone.
func TestDispatchOverflowAllocFree(t *testing.T) {
	if raceSlowdown > 1 {
		t.Skip("the race detector allocates on its own")
	}
	const n = 256
	rt, err := New(Config{Graph: line(2), Transport: transport.NewChannel(2, 0), Shards: 1, ShardQueue: n})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.shards[0]
	burst := func() {
		s.mu.Lock()
		s.busy = true // a drainer in flight: every dispatch parks
		s.mu.Unlock()
		for i := 0; i < n; i++ {
			rt.dispatch(0, item{kind: itemTimer, tag: i})
		}
		rt.drainOverflow(s)
		for i := 0; i < n; i++ {
			if it := <-s.ch; it.tag != i {
				t.Fatalf("drained tag %d at position %d: out of FIFO order", it.tag, i)
			}
		}
	}
	burst()
	if got := testing.AllocsPerRun(20, burst); got != 0 {
		t.Fatalf("a burst of %d parked items allocates %.0f times into a warmed overflow, want 0", n, got)
	}
}

// An overflow that never quite drains holds its backlog, not its history:
// with five items always parked and two in, two out for a thousand rounds,
// parking slides the backlog down to the front of the array instead of
// growing it, in FIFO order, and every slot outside the backlog is zero.
func TestOverflowKeepsItsBacklogNotItsHistory(t *testing.T) {
	s := &shard{}
	in, out := 0, 0
	for ; in < 5; in++ {
		s.park(item{tag: in})
	}
	for round := 0; round < 1000; round++ {
		for i := 0; i < 2; i++ {
			s.park(item{tag: in})
			in++
		}
		for i := 0; i < 2; i++ {
			if it, ok := s.pop(); !ok || it.tag != out {
				t.Fatalf("round %d: popped tag %d (ok=%t), want %d", round, it.tag, ok, out)
			}
			out++
		}
	}
	// The array grows only while the backlog fills half of it, so it stays
	// within a few times the largest backlog (7 here); without the slide it
	// would hold all 2,005 items parked.
	if p, c := s.parked(), cap(s.ov); p != 5 || c > 4*7 {
		t.Fatalf("a backlog of %d items holds an array of %d slots after %d parked", p, c, in)
	}
	for i, it := range s.ov[:cap(s.ov)] {
		if (i < s.head || i >= len(s.ov)) && !reflect.ValueOf(it).IsZero() {
			t.Fatalf("slot %d outside the backlog [%d, %d) holds %+v", i, s.head, len(s.ov), it)
		}
	}
}

// TestAdmissionControlCapsLiveQueries fills a runtime to its
// MaxLiveQueries cap and checks instantiation beyond it is refused on
// both ingress paths — StartQuery returns ErrQueryRejected, an unknown
// query's frame never reaches the factory — with the rejection counted
// on engine_queries_rejected_total and traced in the per-query event
// ring. No tombstone is created, so capacity freed later readmits the id.
func TestAdmissionControlCapsLiveQueries(t *testing.T) {
	g := line(2)
	tr := transport.NewChannel(2, 0)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16, 16)
	rt, err := New(Config{
		Graph:          g,
		Transport:      tr,
		Hop:            time.Millisecond,
		MaxLiveQueries: 2,
		Obs:            reg,
		Trace:          tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	var factoryCalls atomic.Int64
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		factoryCalls.Add(1)
		r := &seqRecorder{}
		return &QueryInstance{Handlers: []sim.Handler{r, r}, Deadline: 1000}, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	for _, id := range []QueryID{1, 2} {
		if _, err := rt.StartQuery(id); err != nil {
			t.Fatalf("query %d under the cap rejected: %v", id, err)
		}
	}
	if _, err := rt.StartQuery(3); !errors.Is(err, ErrQueryRejected) {
		t.Fatalf("StartQuery over the cap returned %v, want ErrQueryRejected", err)
	}

	// The lazy-instantiation ingress is capped too: a frame for an unknown
	// query must be refused before the factory, not after.
	before := factoryCalls.Load()
	if err := tr.Send(transport.Message{From: 0, To: 1, Query: 4, Chain: 1, Payload: "ping"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := factoryCalls.Load(); n != before {
		t.Fatalf("factory invoked for a frame over the admission cap (%d → %d calls)", before, n)
	}
	if _, ok := rt.QueryStats(4); ok {
		t.Fatal("rejected query 4 left state behind")
	}
	if got := rt.met.rejected.Value(); got != 2 {
		t.Fatalf("engine_queries_rejected_total = %d, want 2", got)
	}
	assertTracedRejection := func(id int64) {
		t.Helper()
		for _, ev := range tracer.Events(id) {
			if ev.Kind == obs.EvFrameDrop && ev.Detail == dropRejected {
				return
			}
		}
		t.Fatalf("query %d has no %q event in its trace ring", id, dropRejected)
	}
	assertTracedRejection(3)
	assertTracedRejection(4)
}

// TestIdleRuntimeHoldsNoQuery pins the one door into the engine: a started
// runtime nobody has issued a query on holds no query state — the live
// gauge reads 0 and QuerySnapshots is empty — and a frame carrying QueryID
// 0 is an unknown query like any other id below 1: counted on the drop
// counter, never handed to the factory or a shard queue.
func TestIdleRuntimeHoldsNoQuery(t *testing.T) {
	tr := transport.NewChannel(2, 0)
	reg := obs.NewRegistry()
	rt, err := New(Config{Graph: line(2), Transport: tr, Hop: time.Millisecond, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var factoryCalls atomic.Int64
	rt.SetQueryFactory(func(QueryID) (*QueryInstance, error) {
		factoryCalls.Add(1)
		r := &seqRecorder{}
		return &QueryInstance{Handlers: []sim.Handler{r, r}}, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	assertIdle := func(when string) {
		t.Helper()
		live := -1.0
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == "node_queries_live" {
				live = g.Value
			}
		}
		if live != 0 {
			t.Fatalf("%s: node_queries_live = %v on a runtime with no query, want 0", when, live)
		}
		if qs := rt.QuerySnapshots(); len(qs) != 0 {
			t.Fatalf("%s: QuerySnapshots lists %+v on a runtime with no query", when, qs)
		}
	}
	assertIdle("after Start")

	if err := tr.Send(transport.Message{From: 0, To: 1, Query: 0, Chain: 1, Payload: "ping"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.met.dropUnknown.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("frame for query 0 not counted as an unknown-query drop (counter = %d)", rt.met.dropUnknown.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if n := factoryCalls.Load(); n != 0 {
		t.Fatalf("factory invoked %d times for query 0", n)
	}
	if d := rt.shards[rt.shardOf[1]].depth(); d != 0 {
		t.Fatalf("frame for query 0 reached host 1's shard queue (depth %d)", d)
	}
	assertIdle("after a query-0 frame")
}

// TestShardDefaultsClamp pins the shard-count defaulting: zero Shards
// resolves to at least one worker, and never more workers than local
// hosts.
func TestShardDefaultsClamp(t *testing.T) {
	g := line(3)
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(3, 0), Hop: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Shards(); got < 1 || got > 3 {
		t.Fatalf("default shard count %d for 3 hosts, want 1..3", got)
	}
	rt2, err := New(Config{Graph: g, Transport: transport.NewChannel(3, 0), Hop: time.Millisecond, Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt2.Shards(); got != 3 {
		t.Fatalf("shard count %d for 3 hosts with Shards=64, want clamp to 3", got)
	}
}
