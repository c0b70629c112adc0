package node

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
)

// probeInst records the virtual time host 1 observed when a query's ping
// reached it — the observable that separates per-query clocks from a
// shared one.
type probeInst struct {
	recvSeen atomic.Bool
	recvNow  atomic.Int64
}

type probeSender struct{}

func (probeSender) Start(ctx *sim.Context) { ctx.Send(1, "ping") }
func (probeSender) Receive(ctx *sim.Context, msg sim.Message) {
}
func (probeSender) Timer(ctx *sim.Context, tag int) {}

type probeRecv struct{ p *probeInst }

func (r *probeRecv) Start(ctx *sim.Context) {}
func (r *probeRecv) Receive(ctx *sim.Context, msg sim.Message) {
	if r.p.recvSeen.CompareAndSwap(false, true) {
		r.p.recvNow.Store(int64(ctx.Now()))
	}
}
func (r *probeRecv) Timer(ctx *sim.Context, tag int) {}

// TestPerQueryClockIsolation starts query 2 ten hops after query 1's
// traffic began. Query 2's first delivery must observe a fresh clock
// (ticks ≈ 0): inheriting query 1's elapsed ticks — the old global-clock
// behavior — would make late-arriving queries believe their deadline was
// already half spent.
func TestPerQueryClockIsolation(t *testing.T) {
	const hop = raceSlowdown * 10 * time.Millisecond
	g := line(2)
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(2, hop/2), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	probes := make(map[QueryID]*probeInst)
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		p := &probeInst{}
		probes[id] = p // factory calls are serialized per id under rt.mu
		return &QueryInstance{
			Handlers: []sim.Handler{probeSender{}, &probeRecv{p: p}},
			Deadline: 1000,
		}, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	waitSeen := func(p *probeInst) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !p.recvSeen.Load() {
			if time.Now().After(deadline) {
				t.Fatal("probe ping never delivered")
			}
			time.Sleep(time.Millisecond)
		}
	}

	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	waitSeen(probes[1])
	time.Sleep(10 * hop) // query 1's clock is now ≥ 10 ticks in
	if _, err := rt.StartQuery(2); err != nil {
		t.Fatal(err)
	}
	waitSeen(probes[2])

	if now := probes[2].recvNow.Load(); now > 3 {
		t.Fatalf("query 2's first delivery saw tick %d; its clock inherited another query's elapsed time", now)
	}
	if now := probes[1].recvNow.Load(); now > 3 {
		t.Fatalf("query 1's first delivery saw tick %d, want ≈ 0", now)
	}
}

// TestTimerHeapOrder exercises the heap directly: entries pop in firing
// order, FIFO among equal times.
func TestTimerHeapOrder(t *testing.T) {
	base := time.Now()
	var q timerHeap
	at := func(d time.Duration, seq uint64) *timerEntry {
		return &timerEntry{when: base.Add(d), seq: seq, tag: int(seq)}
	}
	for _, e := range []*timerEntry{
		at(30*time.Millisecond, 0),
		at(10*time.Millisecond, 1),
		at(20*time.Millisecond, 2),
		at(10*time.Millisecond, 3), // same instant as seq 1: FIFO tiebreak
		at(0, 4),
	} {
		heap.Push(&q, e)
	}
	want := []int{4, 1, 3, 2, 0}
	for i, w := range want {
		e := heap.Pop(&q).(*timerEntry)
		if e.tag != w {
			t.Fatalf("pop %d = entry %d, want %d", i, e.tag, w)
		}
	}
}

// TestEngineTimerOrdering schedules timers out of order from one Start
// callback and checks the shared timer loop fires them in tick order.
func TestEngineTimerOrdering(t *testing.T) {
	const hop = raceSlowdown * 10 * time.Millisecond
	g := line(2)
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(2, 0), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan int, 3)
	startHandlers(t, rt, []sim.Handler{&timerHandler{
		onStart: func(ctx *sim.Context) {
			ctx.SetTimer(6, 6)
			ctx.SetTimer(2, 2)
			ctx.SetTimer(4, 4)
		},
		onTimer: func(tag int) { fired <- tag },
	}})
	defer rt.Stop()
	var got []int
	for len(got) < 3 {
		select {
		case tag := <-fired:
			got = append(got, tag)
		case <-time.After(10 * time.Second):
			t.Fatalf("timers never fired; got %v", got)
		}
	}
	for i, want := range []int{2, 4, 6} {
		if got[i] != want {
			t.Fatalf("timer order %v, want [2 4 6]", got)
		}
	}
}

// TestConcurrentQueriesOneRuntime overlaps a COUNT and a MIN query, at
// different querying hosts, on one runtime — the in-process core of the
// multiplexed engine: separate protocol instances, separate clocks,
// separate §6.3 accounting, one fleet.
func TestConcurrentQueriesOneRuntime(t *testing.T) {
	const n = 60
	const hop = testHop
	g := topology.NewRandom(n, 5, 23)
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(100 + (i*37)%211)
	}
	dHat := g.Diameter(nil) + 2

	rt, err := New(Config{
		Graph:     g,
		Values:    values,
		Transport: transport.NewChannel(n, hop/2),
		Hop:       hop,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(id QueryID) protocol.Query {
		q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: fmParams}
		if id%2 == 0 {
			q.Kind, q.Hq = agg.Min, 7
		}
		return q
	}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		return BuildInstance(rt, protocol.NewWildfire(spec(id)), QuerySeed(29, id))
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * hop) // overlap, not serialize
	if _, err := rt.StartQuery(2); err != nil {
		t.Fatal(err)
	}
	waitQuery(dHat, hop)

	// A host outside G is served nowhere: an error, not an index panic.
	for _, h := range []graph.HostID{-1, graph.HostID(g.Len())} {
		if _, _, err := rt.QueryResult(1, h); err == nil {
			t.Fatalf("QueryResult at host %d, outside G, returned no error", h)
		}
	}
	for _, id := range []QueryID{1, 2} {
		q := spec(id)
		v, ok, err := rt.QueryResult(id, q.Hq)
		if err != nil || !ok {
			t.Fatalf("query %d declared no result (err=%v)", id, err)
		}
		b := oracle.Compute(g, values, q.Hq, nil, q.Deadline(), q.Kind)
		slack := 1.0
		if q.Kind.DuplicateSensitive() {
			slack = fmFactor
		}
		if !b.ValidFactor(v, slack) {
			t.Fatalf("query %d (%v) result %.1f outside [%.1f, %.1f] × %.2f",
				id, q.Kind, v, b.LowerValue, b.UpperValue, slack)
		}
		st, seen := rt.QueryStats(id)
		if !seen || st.MessagesSent == 0 || st.MaxComputation() == 0 {
			t.Fatalf("query %d cost accounting empty: %+v", id, st)
		}
		if st.BytesOnWire == 0 {
			t.Fatalf("query %d reported no bytes on the wire", id)
		}
	}
	s1, _ := rt.QueryStats(1)
	s2, _ := rt.QueryStats(2)
	total := rt.Stats()
	if total.MessagesSent != s1.MessagesSent+s2.MessagesSent {
		t.Fatalf("merged stats %d ≠ per-query sum %d+%d",
			total.MessagesSent, s1.MessagesSent, s2.MessagesSent)
	}
}

// TestLazyInstantiationAcrossShards runs two runtimes over TCP where only
// shard A issues the query; shard B has just a factory and must
// materialize its handlers on first contact with the query's frames.
func TestLazyInstantiationAcrossShards(t *testing.T) {
	const n = 40
	const hop = testHop
	g := topology.NewRandom(n, 5, 31)
	dHat := g.Diameter(nil) + 2

	ports := freeAddrs(t, 2)
	addrs := make([]string, n)
	var localA, localB []graph.HostID
	for h := 0; h < n; h++ {
		if h < n/2 {
			addrs[h] = ports[0]
			localA = append(localA, graph.HostID(h))
		} else {
			addrs[h] = ports[1]
			localB = append(localB, graph.HostID(h))
		}
	}
	newShard := func(local []graph.HostID) *Runtime {
		rt, err := New(Config{
			Graph:     g,
			Transport: transport.NewTCP(addrs),
			Hop:       hop,
			Local:     local,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
			q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: fmParams}
			return BuildInstance(rt, protocol.NewWildfire(q), QuerySeed(41, id))
		})
		return rt
	}

	rtB := newShard(localB)
	if err := rtB.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtB.Stop()
	rtA := newShard(localA)
	if err := rtA.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtA.Stop()

	if _, err := rtA.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	waitQuery(dHat, hop)

	v, ok, err := rtA.QueryResult(1, 0)
	if err != nil || !ok {
		t.Fatalf("no result at the issuing shard (err=%v)", err)
	}
	b := oracle.Compute(g, make([]int64, n), 0, nil, protocol.Query{DHat: dHat}.Deadline(), agg.Count)
	if !b.ValidFactor(v, fmFactor) {
		t.Fatalf("estimate %.1f outside [%.1f, %.1f] × %.1f: shard B never joined",
			v, b.LowerValue, b.UpperValue, fmFactor)
	}
	stB, seen := rtB.QueryStats(1)
	if !seen || stB.MessagesSent == 0 {
		t.Fatalf("shard B never lazily instantiated query 1 (stats %+v)", stB)
	}
}

// TestChargedBytesAreWrittenBytes pins the §6.3 byte accounting to the
// socket: a sketch frame's size depends on what the sketch holds, so the
// size the engine charges at send time and the size the transport encodes
// later are two computations that must agree frame for frame. Two runtimes
// over loopback TCP serve the two sides of a bipartite graph — every edge
// crosses processes, nothing is delivered in memory — with the quiescence
// plane off, so protocol frames are the only traffic; after a COUNT and an
// AVG query, the bytes the transports wrote, the bytes the engines counted
// and the queries' BytesOnWire are one number.
func TestChargedBytesAreWrittenBytes(t *testing.T) {
	const n, hop = 24, testHop
	g := graph.New(n)
	for l := 0; l < n/2; l++ {
		for j := 0; j < 3; j++ {
			g.AddEdge(graph.HostID(l), graph.HostID(n/2+(l+j)%(n/2)))
		}
	}
	dHat := g.Diameter(nil) + 2
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(10 + i*i)
	}
	ports := freeAddrs(t, 2)
	addrs := make([]string, n)
	local := make([][]graph.HostID, 2)
	for h := 0; h < n; h++ {
		side := h / (n / 2)
		addrs[h] = ports[side]
		local[side] = append(local[side], graph.HostID(h))
	}
	var rts [2]*Runtime
	var regs [2]*obs.Registry
	for side := 1; side >= 0; side-- { // the worker listens before the issuer starts
		tr, reg := transport.NewTCP(addrs), obs.NewRegistry()
		tr.Obs = reg
		rt, err := New(Config{Graph: g, Values: values, Transport: tr, Hop: hop, Local: local[side], Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
			q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: fmParams}
			if id == 2 {
				q.Kind = agg.Avg
			}
			return BuildInstance(rt, protocol.NewWildfire(q), QuerySeed(43, id))
		})
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
		rts[side], regs[side] = rt, reg
	}
	for id := QueryID(1); id <= 2; id++ {
		if _, err := rts[0].StartQuery(id); err != nil {
			t.Fatal(err)
		}
		waitQuery(dHat, hop)
		if _, ok, err := rts[0].QueryResult(id, 0); err != nil || !ok {
			t.Fatalf("query %d declared no result (err=%v)", id, err)
		}
	}
	// The transports count a batch once its write returns, so give the last
	// flush a moment before holding the three sums against each other.
	var written, counted, charged int64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		written, counted, charged = 0, 0, 0
		for side, reg := range regs {
			written += reg.Counter("transport_bytes_out_total", "", "peer="+ports[1-side]).Value()
			counted += reg.Counter("node_bytes_sent_total", "").Value()
			charged += rts[side].Stats().BytesOnWire
		}
		if written == counted || time.Now().After(deadline) {
			break
		}
	}
	if charged == 0 || written != counted || counted != charged {
		t.Fatalf("wrote %d bytes to the sockets, counted %d sent, charged the queries %d", written, counted, charged)
	}
}

// seqRecorder records the order of lifecycle callbacks at one host.
type seqRecorder struct {
	mu     sync.Mutex
	events []string
}

func (r *seqRecorder) Start(ctx *sim.Context) { r.record("start") }
func (r *seqRecorder) Receive(ctx *sim.Context, msg sim.Message) {
	r.record("recv")
}
func (r *seqRecorder) Timer(ctx *sim.Context, tag int) {}
func (r *seqRecorder) record(e string) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}
func (r *seqRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// TestLazyQueryStartsBeforeReceive injects a frame for a never-announced
// query, as a remote shard's broadcast would: the lazily materialized
// handler must get its Start before the first Receive, so protocols that
// initialize per-host state in Start work on worker shards that never see
// StartQuery. It also pins the trust boundary: a frame with a corrupt
// (negative) QueryID must neither panic nor reach the factory.
func TestLazyQueryStartsBeforeReceive(t *testing.T) {
	g := line(2)
	tr := transport.NewChannel(2, 0)
	rt, err := New(Config{Graph: g, Transport: tr, Hop: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu        sync.Mutex
		factoryID []QueryID
		recorders = make(map[QueryID]*seqRecorder)
	)
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		mu.Lock()
		factoryID = append(factoryID, id)
		r := &seqRecorder{}
		recorders[id] = r
		mu.Unlock()
		return &QueryInstance{Handlers: []sim.Handler{r, r}, Deadline: 100}, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	if err := tr.Send(transport.Message{From: 0, To: 1, Query: 5, Chain: 1, Payload: "ping"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(transport.Message{From: 0, To: 1, Query: -4, Chain: 1, Payload: "ping"}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		r := recorders[5]
		mu.Unlock()
		if r != nil {
			if ev := r.snapshot(); len(ev) >= 2 {
				if ev[0] != "start" || ev[1] != "recv" {
					t.Fatalf("lazy instantiation callback order %v, want [start recv ...]", ev)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("lazy query never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := rt.QueryStats(-4); ok {
		t.Fatal("corrupt negative QueryID was instantiated")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range factoryID {
		if id < 1 {
			t.Fatalf("factory invoked for invalid query id %d", id)
		}
	}
}

// TestQueryRetirement waits out a query's deadline-plus-grace window and
// checks the engine retires its state: late frames are counted as dropped
// instead of delivered, and the factory is not re-invoked for the id.
func TestQueryRetirement(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps out the retirement grace window")
	}
	g := line(2)
	tr := transport.NewChannel(2, 0)
	rt, err := New(Config{Graph: g, Transport: tr, Hop: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var factoryCalls atomic.Int64
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		factoryCalls.Add(1)
		r := &seqRecorder{}
		return &QueryInstance{Handlers: []sim.Handler{r, r}, Deadline: 1}, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(transport.Message{From: 0, To: 1, Query: 1, Chain: 1, Payload: "live"}); err != nil {
		t.Fatal(err)
	}

	// Deadline is 1 tick at a 1ms hop: retirement fires at ~2ms+grace.
	deadline := time.Now().Add(retireGrace + 5*time.Second)
	for {
		if qs := rt.lookupQuery(1); qs != nil && qs.retired.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query 1 never retired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	before, _ := rt.QueryStats(1)

	if err := tr.Send(transport.Message{From: 0, To: 1, Query: 1, Chain: 1, Payload: "late"}); err != nil {
		t.Fatal(err)
	}
	waitFor := time.Now().Add(5 * time.Second)
	for {
		st, _ := rt.QueryStats(1)
		if st.MessagesDropped > before.MessagesDropped {
			if st.MessagesDelivered != before.MessagesDelivered {
				t.Fatalf("late frame was delivered to a retired query (delivered %d -> %d)",
					before.MessagesDelivered, st.MessagesDelivered)
			}
			break
		}
		if time.Now().After(waitFor) {
			t.Fatalf("late frame neither dropped nor delivered: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if n := factoryCalls.Load(); n != 1 {
		t.Fatalf("factory invoked %d times for one query id", n)
	}
}

// ExampleQuerySeed pins the cross-process seed derivation: every process
// must derive the same per-query seed or shards disagree on coin tosses.
func ExampleQuerySeed() {
	fmt.Println(QuerySeed(23, 1) == QuerySeed(23, 1), QuerySeed(23, 1) == QuerySeed(23, 2))
	// Output: true false
}
