package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// wildfireGolden pins WILDFIRE's observable behaviour on the deterministic
// event loop — declared result and the three §6.3 costs — for every
// partial family on both media under one leave+join timeline. The min rows
// were captured before the snapshot-sharing refactor of wildfire.go: which
// partial objects a host retains is an implementation detail, what it
// sends and declares is not. The count and avg rows were re-pinned once,
// when the event loop took the per-(seed, host) coin derivation: other
// coins, so other sketches and other rounds in which they change.
var wildfireGolden = map[string]string{
	"count/point-to-point": "result=205.501933 sent=6441 maxproc=82 time=10",
	"count/wireless":       "result=205.501933 sent=1576 maxproc=100 time=11",
	"min/point-to-point":   "result=10 sent=1317 maxproc=14 time=6",
	"min/wireless":         "result=10 sent=565 maxproc=33 time=6",
	"avg/point-to-point":   "result=61.28661 sent=6858 maxproc=82 time=11",
	"avg/wireless":         "result=61.28661 sent=1618 maxproc=103 time=11",
}

// goldenScenarios hands run each golden row's installed-but-not-yet-run
// WILDFIRE and its network, then runs it and holds the outcome against the
// row.
func goldenScenarios(t *testing.T, prepare func(name string, w *Wildfire, nw *sim.Network)) {
	g := topology.NewRandom(200, 5, 23)
	vals := zipfval.Default(23).Values(g.Len())
	tl := churn.Timeline{
		{H: 17, T: 1}, {H: 42, T: 2}, {H: 99, T: 3}, {H: 150, T: 5}, {H: 3, T: 8},
		{H: 42, T: 6, Kind: churn.Join},  // rebirth
		{H: 120, T: 4, Kind: churn.Join}, // late joiner
		{H: 61, T: 0},                    // never a member
	}
	for _, kind := range []agg.Kind{agg.Count, agg.Min, agg.Avg} {
		for _, medium := range []sim.Medium{sim.MediumPointToPoint, sim.MediumWireless} {
			name := fmt.Sprintf("%v/%v", kind, medium)
			q := Query{Kind: kind, Hq: 0, DHat: 10, Params: agg.Params{Vectors: 16, Bits: 32}}
			nw := sim.NewNetwork(sim.Config{Graph: g, Medium: medium, Seed: 23, Values: vals})
			tl.Apply(nw)
			w := NewWildfire(q)
			if err := w.Install(nw); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			prepare(name, w, nw)
			st := nw.Run(w.Deadline())
			v, ok := w.Result()
			if !ok {
				t.Fatalf("%s: no result declared", name)
			}
			got := fmt.Sprintf("result=%.9g sent=%d maxproc=%d time=%d",
				v, st.MessagesSent, st.MaxComputation(), st.TimeCost)
			if got != wildfireGolden[name] {
				t.Errorf("%s:\n got  %s\n want %s", name, got, wildfireGolden[name])
			}
		}
	}
}

func TestWildfireDifferentialGolden(t *testing.T) {
	goldenScenarios(t, func(string, *Wildfire, *sim.Network) {})
}

// sinkBackend lets a test drive one host's callbacks by hand: timers are
// ignored (the test fires the flush itself) and every frame sent is handed
// to its receiver at once — its ref released, as Receive releases it — or,
// with hold set, kept in held for the test to deliver.
type sinkBackend struct {
	g     *graph.Graph
	coins *rand.Rand // nil: MAX tosses no coins
	sends int
	hold  bool
	held  []sim.Message
}

func (b *sinkBackend) Now() sim.Time                             { return 1 }
func (b *sinkBackend) Value(graph.HostID) int64                  { return 5 }
func (b *sinkBackend) Graph() *graph.Graph                       { return b.g }
func (b *sinkBackend) Medium() sim.Medium                        { return sim.MediumPointToPoint }
func (b *sinkBackend) Rand(graph.HostID) *rand.Rand              { return b.coins }
func (b *sinkBackend) SetTimer(graph.HostID, sim.Time, int, int) {}
func (b *sinkBackend) Send(from, to graph.HostID, payload any, chain int) {
	b.hand(sim.MakeMessage(from, to, payload, chain))
}
func (b *sinkBackend) SendAll(from, skip graph.HostID, payload any, chain int) {
	for _, to := range b.g.Neighbors(from) {
		if to != skip {
			b.hand(sim.MakeMessage(from, to, payload, chain))
		}
	}
}

func (b *sinkBackend) hand(m sim.Message) {
	b.sends++
	if b.hold {
		b.held = append(b.held, m)
		return
	}
	frameSnap(m.Payload).release()
}

// frameSnap is the snapshot a WILDFIRE frame carries, nil for any other.
func frameSnap(payload any) *wfSnap {
	switch m := payload.(type) {
	case wfBroadcast:
		return m.S
	case wfConverge:
		return m.S
	}
	return nil
}

// carry wraps p in a snapshot holding one ref, as a decoded frame's does;
// nil carries nothing.
func carry(p *agg.Partial) *wfSnap {
	if p == nil {
		return nil
	}
	return takeSnap(p, 0, 1)
}

// bcast is a broadcast at hop carrying p, its snapshot holding one ref as
// a decoded frame's does; a nil p makes the partial-less broadcast a peer
// may send.
func bcast(hop int, p *agg.Partial) wfBroadcast {
	s := carry(p)
	if s == nil {
		s = new(wfSnap)
		s.refs.Store(1)
	}
	s.hop = hop
	return wfBroadcast{S: s}
}

// TestWildfireRoundAllocations pins the garbage of one WILDFIRE round at
// a host — Receive, then the end-of-tick flush — for the shapes a round
// takes, with the sink handing every frame to its receiver: none. A sent
// snapshot goes back to the pool once its last frame is received, the
// next send copies into it in place, and both frame types are
// pointer-shaped, so boxing one allocates nothing.
func TestWildfireRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned for uninstrumented builds")
	}
	const deg, runs = 4, 50
	g := graph.New(deg + 2) // host deg+1 is isolated
	for n := 1; n <= deg; n++ {
		g.AddEdge(0, graph.HostID(n))
	}
	be := &sinkBackend{g: g}
	ctx := new(sim.Context)
	maxPartial := func(v int64) *agg.Partial { return agg.NewPartial(agg.Max, v, params(), nil) }
	// activated returns host 0 of a fresh query issued at neighbor 1, just
	// activated by 1's broadcast: its own value (5) tops the piggybacked 1,
	// so it owes 1 a reply at the end of the tick.
	activated := func() *wfHost {
		w := NewWildfire(Query{Kind: agg.Max, Hq: 1, DHat: 8, Params: params()})
		if err := w.Install(sim.NewNetwork(sim.Config{Graph: g})); err != nil {
			t.Fatal(err)
		}
		ctx.Reset(be, 0, 1)
		w.hosts[0].Receive(ctx, sim.MakeMessage(1, 0, bcast(1, maxPartial(1)), 1))
		return &w.hosts[0]
	}
	flush := func(h *wfHost) (sent int) {
		be.sends = 0
		ctx.Reset(be, 0, 1)
		h.Timer(ctx, wfTagFlush)
		return be.sends
	}
	// Everything a run consumes is built up front, so the measurement sees
	// the host's own allocations only. AllocsPerRun calls f runs+1 times.
	fresh := make([]*wfHost, runs+1)
	for i := range fresh {
		fresh[i] = activated()
	}
	host := activated()
	flush(host)
	// News from neighbor 2, every time. The test keeps a ref on each of
	// these, as it does on the duplicate, so a run recycles only what the
	// host itself sends.
	rising := make([]sim.Message, runs+1)
	for i := range rising {
		rising[i] = sim.MakeMessage(2, 0, wfConverge{S: carry(maxPartial(int64(100 + i)))}, 2)
		frameSnap(rising[i].Payload).refs.Add(1)
	}
	dup := sim.MakeMessage(2, 0, wfConverge{S: carry(maxPartial(100 + runs))}, 2)

	next, sent := 0, 0
	check := func(shape string, wantSent int, f func()) {
		t.Helper()
		next = 0
		if got := testing.AllocsPerRun(runs, f); got != 0 || sent != wantSent {
			t.Errorf("%s: %.0f allocations and %d sends per round, want 0 and %d",
				shape, got, sent, wantSent)
		}
	}
	// The reply to the activator: nothing changed since the broadcast, but
	// the host keeps no snapshot, so the reply copies its partial into the
	// one the broadcast's receivers gave back.
	check("reply to activator", 1, func() {
		sent = flush(fresh[next])
		next++
	})
	// The partial changed: the flush copies it into the snapshot the last
	// flush's receivers gave back and sends it to the three neighbors that
	// lack it.
	check("changed", deg-1, func() {
		ctx.Reset(be, 0, 2)
		host.Receive(ctx, rising[next])
		next++
		sent = flush(host)
	})
	// The same partial again: nothing to learn, nothing to say.
	check("duplicate", 0, func() {
		frameSnap(dup.Payload).refs.Add(1) // this delivery's ref
		ctx.Reset(be, 0, 2)
		host.Receive(ctx, dup)
		sent = flush(host)
	})
	// The query reaches a host not yet active, built on the storage an
	// earlier activation left: activation refills its partial in place,
	// and the forward to the three other neighbors copies it into a
	// recycled snapshot.
	fwd := activated()
	wave := sim.MakeMessage(1, 0, bcast(1, maxPartial(1)), 1)
	check("broadcast forward", deg-1, func() {
		fwd.w.NewHost(0)
		frameSnap(wave.Payload).refs.Add(1) // this delivery's ref
		be.sends = 0
		ctx.Reset(be, 0, 1)
		fwd.Receive(ctx, wave)
		sent = be.sends
	})
	// A send no frame leaves takes no snapshot, since no Receive would
	// ever give it back to the pool: not a leaf's forward of the query...
	// The pool is emptied first, so that each such snapshot would cost an
	// allocation rather than take a spare.
	leaf := sim.MakeMessage(0, 2, bcast(2, maxPartial(1)), 1)
	for i := 0; i < 64; i++ {
		snapPool.Get()
	}
	check("leaf forward", 0, func() {
		fwd.w.NewHost(2)
		frameSnap(leaf.Payload).refs.Add(1) // this delivery's ref
		be.sends = 0
		ctx.Reset(be, 2, 1)
		fwd.w.hosts[2].Receive(ctx, leaf)
		sent = be.sends
	})
	// ...nor an isolated h_q's Start.
	lone := NewWildfire(Query{Kind: agg.Max, Hq: deg + 1, DHat: 8, Params: params()})
	if err := lone.Install(sim.NewNetwork(sim.Config{Graph: g})); err != nil {
		t.Fatal(err)
	}
	check("isolated h_q", 0, func() {
		lone.NewHost(deg + 1)
		be.sends = 0
		ctx.Reset(be, deg+1, 0)
		lone.hosts[deg+1].Start(ctx)
		sent = be.sends
	})
}
