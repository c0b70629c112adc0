package node

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/transport"
)

// payloadRecorder records the payload strings a host receives. The
// optional hooks are set before Start and never mutated, so they need no
// locking.
type payloadRecorder struct {
	mu     sync.Mutex
	got    []string
	onRecv func(ctx *sim.Context) // runs once, on the first delivery
	fire   func(ctx *sim.Context, tag int)
	seen   atomic.Bool
}

func (r *payloadRecorder) Start(ctx *sim.Context) {}
func (r *payloadRecorder) Receive(ctx *sim.Context, msg sim.Message) {
	r.mu.Lock()
	r.got = append(r.got, msg.Payload.(string))
	r.mu.Unlock()
	if r.onRecv != nil && r.seen.CompareAndSwap(false, true) {
		r.onRecv(ctx)
	}
}
func (r *payloadRecorder) Timer(ctx *sim.Context, tag int) {
	if r.fire != nil {
		r.fire(ctx, tag)
	}
}
func (r *payloadRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.got...)
}

// pinger sends one payload at Start and another from a timer.
type pinger struct {
	to      graph.HostID
	laterAt sim.Time
}

func (p *pinger) Start(ctx *sim.Context) {
	ctx.Send(p.to, "start")
	if p.laterAt > 0 {
		ctx.SetTimer(p.laterAt, 1)
	}
}
func (p *pinger) Receive(ctx *sim.Context, msg sim.Message) {}
func (p *pinger) Timer(ctx *sim.Context, tag int)           { ctx.Send(p.to, "later") }

// TestPerQueryChurnIsolation is the membership layer's core engine test:
// one fleet, two concurrent queries, and host 1 is dead from tick 0 for
// query 1 only. Query 1's traffic to it must be swallowed while query 2
// keeps hearing from the very same host.
func TestPerQueryChurnIsolation(t *testing.T) {
	const hop = raceSlowdown * 10 * time.Millisecond
	g := line(2)
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(2, hop/2), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	recorders := make(map[QueryID]*payloadRecorder)
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		r := &payloadRecorder{}
		mu.Lock()
		recorders[id] = r
		mu.Unlock()
		inst := &QueryInstance{
			Handlers: []sim.Handler{&pinger{to: 1}, r},
			Deadline: 1000,
		}
		if id == 1 {
			inst.Churn = churn.Timeline{{H: 1, T: 0}}
		}
		return inst, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	for _, id := range []QueryID{1, 2} {
		if _, err := rt.StartQuery(id); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		q2got := len(recorders[2].snapshot())
		mu.Unlock()
		st1, _ := rt.QueryStats(1)
		if q2got > 0 && st1.MessagesDropped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query 2 delivered %d, query 1 dropped %d; want >0 and >0",
				q2got, st1.MessagesDropped)
		}
		time.Sleep(time.Millisecond)
	}
	if got := recorders[1].snapshot(); len(got) != 0 {
		t.Fatalf("host 1 is dead for query 1 but received %v", got)
	}
	st1, _ := rt.QueryStats(1)
	if st1.MessagesDelivered != 0 {
		t.Fatalf("query 1 delivered %d messages to a dead-for-query host", st1.MessagesDelivered)
	}
}

// TestPerQueryChurnTimedDeparture drives a mid-query departure through
// the shared timer heap: host 1 leaves query 1 at tick 3 of that query's
// clock, so the tick-0 payload lands, the tick-6 payload is dropped, and
// the tick-5 timer host 1 armed before departing never fires.
func TestPerQueryChurnTimedDeparture(t *testing.T) {
	const hop = raceSlowdown * 10 * time.Millisecond
	g := line(2)
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(2, hop/2), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	var deadTimerFired atomic.Bool
	r := &payloadRecorder{
		onRecv: func(ctx *sim.Context) { ctx.SetTimer(5, 9) },
		fire:   func(ctx *sim.Context, tag int) { deadTimerFired.Store(true) },
	}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		return &QueryInstance{
			Handlers: []sim.Handler{&pinger{to: 1, laterAt: 6}, r},
			Deadline: 1000,
			Churn:    churn.Timeline{{H: 1, T: 3}},
		}, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(r.snapshot()) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("host 1 received %v, want the tick-0 payload", r.snapshot())
		}
		time.Sleep(time.Millisecond)
	}

	// Wait past tick 6's send plus slack: the "later" payload must have
	// been dropped at the now-departed host, and the tick-5 timer host 1
	// armed at its first delivery must have been suppressed.
	time.Sleep(12 * hop)
	if got := r.snapshot(); len(got) != 1 || got[0] != "start" {
		t.Fatalf("host 1 received %v, want only the pre-departure payload", got)
	}
	if deadTimerFired.Load() {
		t.Fatal("a timer fired at a host after its per-query departure")
	}
	st, _ := rt.QueryStats(1)
	if st.MessagesDropped == 0 {
		t.Fatal("post-departure payload was not counted as dropped")
	}
}

// TestRetiredRing exercises the bounded summary ring directly: eviction
// order, id lookup, and the recycling guard's view.
func TestRetiredRing(t *testing.T) {
	var r retiredRing
	for i := 1; i <= retiredRingCap+40; i++ {
		r.push(RetiredStats{Query: QueryID(i), MessagesSent: int64(i)})
	}
	list := r.list()
	if len(list) != retiredRingCap {
		t.Fatalf("ring holds %d summaries, want %d", len(list), retiredRingCap)
	}
	if list[0].Query != 41 || list[len(list)-1].Query != QueryID(retiredRingCap+40) {
		t.Fatalf("ring spans [%d, %d], want [41, %d]",
			list[0].Query, list[len(list)-1].Query, retiredRingCap+40)
	}
	if r.seen(40) || !r.seen(41) {
		t.Fatal("eviction did not track ids")
	}
	if s, ok := r.get(100); !ok || s.MessagesSent != 100 {
		t.Fatalf("get(100) = %+v, %t", s, ok)
	}
}

// TestQueryCompaction follows a query past retirement into compaction:
// its O(hosts) state and demux entry are dropped, its summary lands on
// the ring (readable via RetiredStats and QueryStats), runtime totals
// still include it, and a straggler frame neither re-invokes the factory
// nor resurrects the query.
func TestQueryCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps out the retirement and compaction grace windows")
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
		r := &payloadRecorder{}
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
	totalBefore := rt.Stats()
	if totalBefore.MessagesDelivered == 0 {
		// The frame may still be in flight; wait for it so the compacted
		// totals comparison below is meaningful.
		deadline := time.Now().Add(5 * time.Second)
		for rt.Stats().MessagesDelivered == 0 {
			if time.Now().After(deadline) {
				t.Fatal("probe frame never delivered")
			}
			time.Sleep(time.Millisecond)
		}
	}

	deadline := time.Now().Add(2*retireGrace + 10*time.Second)
	for {
		if rs := rt.RetiredStats(); len(rs) == 1 && rs[0].Query == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query 1 never compacted onto the retired ring")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rt.lookupQuery(1) != nil {
		t.Fatal("compaction left the demux entry behind")
	}
	sum := rt.RetiredStats()[0]
	if sum.MessagesDelivered == 0 {
		t.Fatalf("compacted summary lost the delivery count: %+v", sum)
	}
	st, ok := rt.QueryStats(1)
	if !ok || st.MessagesDelivered != sum.MessagesDelivered {
		t.Fatalf("QueryStats after compaction = %+v, %t; want ring summary", st, ok)
	}
	if total := rt.Stats(); total.MessagesDelivered == 0 {
		t.Fatal("runtime totals forgot the compacted query")
	}

	calls := factoryCalls.Load()
	if err := tr.Send(transport.Message{From: 0, To: 1, Query: 1, Chain: 1, Payload: "straggler"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if factoryCalls.Load() != calls {
		t.Fatal("straggler frame re-invoked the factory for a compacted id")
	}
	if rt.lookupQuery(1) != nil {
		t.Fatal("straggler frame resurrected a compacted query")
	}
}

// TestRuntimeWarmsTransportAtStart pins the boot-time half of the
// warm-up-dial contract: Start alone — no query, no traffic — makes the
// runtime pre-establish connections to remote peers. The test poses as
// the remote process with a bare listener and must see an inbound
// connection without ever being sent a frame.
func TestRuntimeWarmsTransportAtStart(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ports := freeAddrs(t, 1)
	addrs := []string{ports[0], l.Addr().String()}

	accepted := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Close()
		close(accepted)
	}()

	rt, err := New(Config{
		Graph:     line(2),
		Transport: transport.NewTCP(addrs),
		Hop:       time.Millisecond,
		Local:     []graph.HostID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("runtime Start never warmed the connection to the remote peer")
	}
}

// TestTombstoneCompaction: a query id whose factory fails must not leave
// a demux entry behind forever — the tombstone compacts onto the ring
// like any retired query, and later frames for the id neither re-run the
// factory nor recreate the entry.
func TestTombstoneCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps out the tombstone grace window")
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
		return nil, fmt.Errorf("boom")
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	if err := tr.Send(transport.Message{From: 0, To: 1, Query: 9, Chain: 1, Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(retireGrace + 10*time.Second)
	for factoryCalls.Load() == 0 { // the frame delivers asynchronously
		if time.Now().After(deadline) {
			t.Fatal("frame never reached the factory")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		rt.mu.Lock()
		_, present := rt.queries[9]
		rt.mu.Unlock()
		if !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("factory-failure tombstone never compacted out of the demux map")
		}
		time.Sleep(10 * time.Millisecond)
	}
	calls := factoryCalls.Load()
	if calls != 1 {
		t.Fatalf("factory ran %d times before compaction, want 1", calls)
	}
	if err := tr.Send(transport.Message{From: 0, To: 1, Query: 9, Chain: 1, Payload: "again"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if factoryCalls.Load() != calls {
		t.Fatal("straggler frame re-ran the factory for a compacted tombstone id")
	}
	rt.mu.Lock()
	_, present := rt.queries[9]
	rt.mu.Unlock()
	if present {
		t.Fatal("straggler frame recreated the compacted tombstone entry")
	}
}
