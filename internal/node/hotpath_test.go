package node

import (
	"math/rand"
	"testing"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
)

// The per-host coin stream is part of the fleet's wire-free contract:
// every process derives it from (shared seed, query id, host) alone, so
// its outputs may only change together with a note in CHANGES.md — a
// mixed-version fleet would toss different coins for the same host.
func TestCoinSourceGolden(t *testing.T) {
	want := []uint64{
		0x919b47a781d37922, 0xff5e5f1b2c87c3eb, 0xd472bde73bc0d7da, 0x5375f7248c8b165a,
	}
	src := newCoinSource(QuerySeed(23, 7), 5)
	for i, w := range want {
		if got := src.Uint64(); got != w {
			t.Errorf("output %d of (seed 23, query 7, host 5) = %#x, want %#x", i, got, w)
		}
	}
	// Int63 is the draw the sketches make: the next Uint64's top 63 bits.
	a, b := newCoinSource(1, 2), newCoinSource(1, 2)
	if got, want := a.Int63(), int64(b.Uint64()>>1); got != want {
		t.Errorf("Int63 = %#x, want Uint64>>1 = %#x", got, want)
	}
	// Neighbouring hosts and neighbouring queries get unrelated streams.
	if x, y := newCoinSource(1, 2).Uint64(), newCoinSource(1, 3).Uint64(); x == y {
		t.Errorf("hosts 2 and 3 share a first coin %#x", x)
	}
	if x, y := newCoinSource(QuerySeed(23, 7), 5).Uint64(), newCoinSource(QuerySeed(23, 8), 5).Uint64(); x == y {
		t.Errorf("queries 7 and 8 share host 5's first coin %#x", x)
	}
}

// nullBackend lets a test run a handler callback by hand: sends and
// timers vanish.
type nullBackend struct {
	g      *graph.Graph
	values []int64
}

func (b nullBackend) Now() sim.Time                        { return 0 }
func (b nullBackend) Value(h graph.HostID) int64           { return b.values[h] }
func (b nullBackend) Graph() *graph.Graph                  { return b.g }
func (b nullBackend) Send(_, _ graph.HostID, _ any, _ int) {}
func (b nullBackend) SetTimer(graph.HostID, sim.Time, int, int) {
}

// A host's activation sketch — its own FM coins — must not depend on
// which process serves it: the instance an all-local runtime builds and
// the one a runtime serving a third of the hosts builds toss identical
// coins for every host they share.
func TestActivationSketchIndependentOfSharding(t *testing.T) {
	g := topology.NewRandom(30, 4, 23)
	values := make([]int64, g.Len())
	var third []graph.HostID
	for h := 10; h < 20; h++ {
		third = append(third, graph.HostID(h))
	}
	build := func(local []graph.HostID) *Runtime {
		rt, err := New(Config{Graph: g, Transport: transport.NewChannel(g.Len(), 0), Local: local})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	all, shard := build(nil), build(third)
	seed := QuerySeed(23, 7)
	ctx := new(sim.Context)
	var prev agg.Partial
	for _, hq := range third {
		// Activate hq by hand (Start activates the querying host) on both
		// instances and compare the partial it froze.
		q := protocol.Query{Kind: agg.Count, Hq: hq, DHat: 4, Params: agg.Params{Vectors: 64, Bits: 32}}
		var initial [2]agg.Partial
		for i, rt := range []*Runtime{all, shard} {
			w := protocol.NewWildfire(q)
			inst, err := BuildInstance(rt, w, seed)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Reset(nullBackend{g: g, values: values}, hq, 0)
			inst.Handlers[hq].Start(ctx)
			initial[i] = w.HostInitial(hq)
			if initial[i] == nil || initial[i].Result() == 0 {
				t.Fatalf("host %d did not activate with a non-empty sketch", hq)
			}
		}
		if !initial[0].Equal(initial[1]) {
			t.Errorf("host %d tosses different coins all-local and sharded", hq)
		}
		if prev != nil && prev.Equal(initial[0]) {
			t.Errorf("hosts %d and %d toss identical coins", hq-1, hq)
		}
		prev = initial[0]
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
// Receive on the worker's reused context (RNG installed in place) → timer
// heap → Timer → send. Nothing on that path allocates: the delivery
// queue is a ring, the callback context and the per-host RNG are reused in
// place, and the timer heap's entries cycle through a freelist.
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
		hd := &relay{peer: 1 - h, done: done}
		handlers[h] = WithRand(hd, rand.New(newCoinSource(1, h)))
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
	if perFrame > 0.25 { // 7.00 before the ring, the reused context and in-place RNG; 1.00 before the timer freelist
		t.Fatalf("%.2f allocations per frame on the chan engine, want 0", perFrame)
	}
}
