package node

import (
	"testing"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
)

// A host's activation sketch — its own FM coins — must not depend on
// which process serves it: for every host they share, a runtime serving
// all hosts and one serving a third of them toss identical coins.
func TestActivationSketchIndependentOfSharding(t *testing.T) {
	g := topology.NewRandom(30, 4, 23)
	var third []graph.HostID
	for h := 10; h < 20; h++ {
		third = append(third, graph.HostID(h))
	}
	// activate issues query id = hq+1 at hq on a runtime serving local and
	// returns the partial hq froze when its Start activated it.
	activate := func(local []graph.HostID, hq graph.HostID) agg.Partial {
		rt, err := New(Config{Graph: g, Transport: transport.NewChannel(g.Len(), 0), Local: local})
		if err != nil {
			t.Fatal(err)
		}
		q := protocol.Query{Kind: agg.Count, Hq: hq, DHat: 4, Params: agg.Params{Vectors: 64, Bits: 32}}
		w := protocol.NewWildfire(q)
		rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
			return BuildInstance(rt, w, QuerySeed(23, id))
		})
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
		if _, err := rt.StartQuery(QueryID(hq) + 1); err != nil {
			t.Fatal(err)
		}
		var initial agg.Partial
		// Do queues behind hq's Start on hq's shard worker.
		if err := rt.Do(hq, func() { initial = w.HostInitial(hq) }); err != nil {
			t.Fatal(err)
		}
		if initial == nil || initial.Result() == 0 {
			t.Fatalf("host %d did not activate with a non-empty sketch", hq)
		}
		return initial
	}
	var prev agg.Partial
	for _, hq := range third {
		all, shard := activate(nil, hq), activate(third, hq)
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
