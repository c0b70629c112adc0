package protocol

import (
	"math/rand"
	"testing"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/wire"
)

// A snapshot's refs are its host's one plus one per frame not yet
// received, at every step of its life: a flush takes its frames' refs up
// front, each Receive gives one back — a frame that is not a neighbor's or
// carries no partial this query could have built included — and the
// version moving on gives back the host's, which takes the last snapshot
// to zero. Driven by hand on the sink: h_q = 0 with neighbors 1–3, and
// host 4 behind 1.
func TestWildfireSnapshotRefs(t *testing.T) {
	g := graph.New(5)
	for _, e := range [][2]graph.HostID{{0, 1}, {0, 2}, {0, 3}, {1, 4}} {
		g.AddEdge(e[0], e[1])
	}
	q := Query{Kind: agg.Count, Hq: 0, DHat: 8, Params: params()}
	w := NewWildfire(q)
	if err := w.Install(sim.NewNetwork(sim.Config{Graph: g})); err != nil {
		t.Fatal(err)
	}
	be := &sinkBackend{g: g, coins: rand.New(rand.NewSource(3)), hold: true}
	ctx := new(sim.Context)
	hq := w.hosts[0]
	refs := func(step string, s *wfSnap, want int32) {
		t.Helper()
		if got := s.refs.Load(); got != want {
			t.Fatalf("%s: refs = %d, want %d", step, got, want)
		}
	}
	// receive delivers every held frame and forgets it; what the receivers
	// send in turn is released on the spot.
	receive := func() {
		t.Helper()
		held := be.held
		be.held, be.hold = nil, false
		for _, m := range held {
			ctx.Reset(be, m.To, m.Chain())
			w.hosts[m.To].Receive(ctx, m)
		}
		be.hold = true
	}

	ctx.Reset(be, 0, 0)
	hq.Start(ctx)
	first := hq.snap
	refs("broadcast to 3 neighbors", first, 1+3)
	receive()
	refs("broadcast received", first, 1)

	// News from neighbor 1 that h_q's state neither covers nor equals:
	// the flush owes it to all three neighbors. The test holds a ref on the
	// first snapshot meanwhile, so the flush cannot recycle it under our
	// eyes.
	news := agg.NewPartial(agg.Count, 0, q.Params, rand.New(rand.NewSource(11)))
	if merged := hq.partial.Clone(); !merged.Combine(news) || merged.Equal(news) {
		t.Fatal("the news must change h_q's state and differ from what it becomes")
	}
	first.refs.Add(1)
	ctx.Reset(be, 0, 1)
	hq.Receive(ctx, sim.MakeMessage(1, 0, wfConverge{S: carry(news)}, 1))
	ctx.Reset(be, 0, 1)
	hq.Timer(ctx, wfTagFlush)
	refs("the version moved on: the test's ref is the last", first, 1)
	first.release()
	refs("the version moved on", first, 0)
	second := hq.snap
	if second == first {
		t.Fatal("the flush sends the snapshot of the old version")
	}
	refs("flush to 3 neighbors", second, 1+3)
	receive()
	refs("flush received", second, 1)

	// Frames h_q drops still give their ref back.
	for name, m := range map[string]sim.Message{
		"non-neighbor":  sim.MakeMessage(4, 0, wfConverge{S: carry(news)}, 1),
		"min partial":   sim.MakeMessage(2, 0, wfConverge{S: carry(agg.NewPartial(agg.Min, 1, q.Params, nil))}, 1),
		"c=8 broadcast": sim.MakeMessage(3, 0, wfBroadcast{Hop: 1, S: carry(agg.NewPartial(agg.Count, 0, agg.Params{Vectors: 8, Bits: 32}, be.coins))}, 1),
	} {
		s := frameSnap(m.Payload)
		ctx.Reset(be, 0, 1)
		hq.Receive(ctx, m)
		refs(name+" dropped", s, 0)
	}
	ctx.Reset(be, 0, 1)
	hq.Receive(ctx, sim.MakeMessage(1, 0, wfConverge{}, 1)) // has=0: nothing to release
	refs("after the drops", second, 1)
}

// A received WILDFIRE frame costs nothing once the pool is warm: a c=64
// COUNT wfConverge decodes into a recycled snapshot, its partial and
// vectors overwritten in place, and the receiver's release returns it.
func TestWildfireDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned for uninstrumented builds")
	}
	ps := agg.Params{Vectors: 64, Bits: 32}
	rng := rand.New(rand.NewSource(5))
	p := agg.NewPartial(agg.Count, 0, ps, rng)
	for i := 0; i < 2000; i++ {
		p.Combine(agg.NewPartial(agg.Count, 0, ps, rng))
	}
	buf, err := wire.AppendFrame(nil, wire.Frame{From: 1, To: 2, Query: 9, Chain: 4, Payload: wfConverge{S: carry(p)}})
	if err != nil {
		t.Fatal(err)
	}
	body := buf[4:]
	receive := func() {
		f, err := wire.DecodeFrameBody(body)
		if err != nil {
			t.Fatal(err)
		}
		s := f.Payload.(wfConverge).S
		if !s.a.Equal(p) {
			t.Fatal("the recycled snapshot decodes to another partial")
		}
		s.release()
	}
	receive() // the pool's first snapshot, partial and vectors
	if got := testing.AllocsPerRun(100, receive); got != 0 {
		t.Fatalf("decoding a c=64 COUNT frame into a recycled snapshot allocates %.0f times, want 0", got)
	}
}
