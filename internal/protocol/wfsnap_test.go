package protocol

import (
	"math/rand"
	"testing"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/wire"
)

// A snapshot's refs are the frames that carry it and have not yet been
// received, at every step of its life — the host holds none: a send takes
// its frames' refs up front, each Receive gives one back — a frame that is
// not a neighbor's or carries no partial this query could have built
// included — and the last sends the snapshot back to the pool. Driven by
// hand on the sink: h_q = 0 with neighbors 1–3, and host 4 behind 1.
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
	hq := &w.hosts[0]
	refs := func(step string, s *wfSnap, want int32) {
		t.Helper()
		if got := s.refs.Load(); got != want {
			t.Fatalf("%s: refs = %d, want %d", step, got, want)
		}
	}
	// sent is the one snapshot every held frame carries.
	sent := func(step string, frames int) *wfSnap {
		t.Helper()
		if len(be.held) != frames {
			t.Fatalf("%s: %d frames, want %d", step, len(be.held), frames)
		}
		s := frameSnap(be.held[0].Payload)
		for _, m := range be.held {
			if frameSnap(m.Payload) != s {
				t.Fatalf("%s: the frames carry different snapshots", step)
			}
		}
		return s
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
	// pooled reports whether s is back in the pool. The race detector drops
	// pooled items at random, so there it reports true.
	pooled := func(s *wfSnap) bool {
		if raceEnabled {
			return true
		}
		var got []*wfSnap
		for len(got) < 8 && (len(got) == 0 || got[len(got)-1] != s) {
			got = append(got, snapPool.Get().(*wfSnap))
		}
		for _, x := range got {
			snapPool.Put(x)
		}
		return got[len(got)-1] == s
	}

	ctx.Reset(be, 0, 0)
	hq.Start(ctx)
	first := sent("broadcast", 3)
	refs("broadcast to 3 neighbors", first, 3)
	receive()
	refs("broadcast received", first, 0)
	if !pooled(first) {
		t.Fatal("the received broadcast's snapshot is not back in the pool")
	}

	// News from neighbor 1 that covers h_q's state and adds to it: h_q's
	// version moves on, 1 holds exactly the new state, so the flush owes it
	// to 2 and 3 only — one snapshot, two refs.
	news := hq.partial.Clone()
	if !news.Combine(agg.NewPartial(agg.Count, 0, q.Params, rand.New(rand.NewSource(11)))) {
		t.Fatal("the news must add to h_q's state")
	}
	msg := sim.MakeMessage(1, 0, wfConverge{S: carry(news)}, 1)
	ctx.Reset(be, 0, 1)
	hq.Receive(ctx, msg)
	refs("news received", frameSnap(msg.Payload), 0)
	ctx.Reset(be, 0, 1)
	hq.Timer(ctx, wfTagFlush)
	second := sent("flush", 2)
	refs("flush to the 2 neighbors that lack the version", second, 2)
	receive()
	refs("flush received", second, 0)
	if !pooled(second) {
		t.Fatal("the received flush's snapshot is not back in the pool")
	}

	// Frames h_q drops still give their ref back.
	for name, m := range map[string]sim.Message{
		"non-neighbor":  sim.MakeMessage(4, 0, wfConverge{S: carry(news)}, 1),
		"min partial":   sim.MakeMessage(2, 0, wfConverge{S: carry(agg.NewPartial(agg.Min, 1, q.Params, nil))}, 1),
		"c=8 broadcast": sim.MakeMessage(3, 0, bcast(1, agg.NewPartial(agg.Count, 0, agg.Params{Vectors: 8, Bits: 32}, be.coins)), 1),
	} {
		s := frameSnap(m.Payload)
		ctx.Reset(be, 0, 1)
		hq.Receive(ctx, m)
		refs(name+" dropped", s, 0)
	}
	ctx.Reset(be, 0, 1)
	hq.Receive(ctx, sim.MakeMessage(1, 0, wfConverge{}, 1)) // has=0: nothing to release

	// A frame no Receive will take gives its ref back through its backend.
	for name, payload := range map[string]any{
		"broadcast": bcast(1, news),
		"converge":  wfConverge{S: carry(news)},
	} {
		s := frameSnap(payload)
		sim.Release(payload)
		refs(name+" released by its backend", s, 0)
	}
	sim.Release(wfConverge{}) // has=0: nothing to release
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
