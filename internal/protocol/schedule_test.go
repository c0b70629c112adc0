package protocol

import (
	"math/rand"
	"slices"
	"testing"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// subTickNet is a sim.Backend that runs a schedule sim.Network does not:
// δ is k sub-ticks, and a message takes its edge's own delay of 1 to k
// sub-ticks, where the event loop always takes one whole δ. The §3 model
// allows any delay up to δ. A fixed delay per edge keeps every link FIFO.
// The network is static, and Now is the δ tick the current sub-tick falls
// in, as on the live engine.
type subTickNet struct {
	g        *graph.Graph
	values   []int64
	k        int64
	delay    func(a, b graph.HostID) int64
	coins    []*rand.Rand
	handlers []sim.Handler
	now      int64 // sub-ticks
	seq      int64
	queue    []subTickEvent
	ctx      sim.Context
}

type subTickEvent struct {
	at, seq int64
	host    graph.HostID
	msg     *sim.Message // nil for a timer
	tag     int
}

func (n *subTickNet) Now() sim.Time                  { return sim.Time(n.now / n.k) }
func (n *subTickNet) Value(h graph.HostID) int64     { return n.values[h] }
func (n *subTickNet) Graph() *graph.Graph            { return n.g }
func (n *subTickNet) Medium() sim.Medium             { return sim.MediumPointToPoint }
func (n *subTickNet) Rand(h graph.HostID) *rand.Rand { return n.coins[h] }

func (n *subTickNet) push(e subTickEvent) {
	n.seq++
	e.seq = n.seq
	n.queue = append(n.queue, e)
}

func (n *subTickNet) Send(from, to graph.HostID, payload any, chain int) {
	m := sim.MakeMessage(from, to, payload, chain)
	n.push(subTickEvent{at: n.now + n.delay(from, to), host: to, msg: &m})
}

func (n *subTickNet) SendAll(from, skip graph.HostID, payload any, chain int) {
	for _, to := range n.g.Neighbors(from) {
		if to != skip {
			n.Send(from, to, payload, chain)
		}
	}
}

// SetTimer fires at the start of tick at, or now when that has begun.
func (n *subTickNet) SetTimer(h graph.HostID, at sim.Time, tag, chain int) {
	n.push(subTickEvent{at: max(n.now, int64(at)*n.k), host: h, tag: tag})
}

// run installs p, starts every host at sub-tick 0 and delivers in (time,
// send order) until p's deadline tick has passed.
func (n *subTickNet) run(t *testing.T, p Protocol, seed int64) {
	t.Helper()
	if err := p.Init(n.g); err != nil {
		t.Fatal(err)
	}
	for h := graph.HostID(0); int(h) < n.g.Len(); h++ {
		n.handlers = append(n.handlers, p.NewHost(h))
		n.coins = append(n.coins, sim.NewCoins(seed, h).Rand)
	}
	for h, hd := range n.handlers {
		n.ctx.Reset(n, graph.HostID(h), 0)
		hd.Start(&n.ctx)
	}
	end := (int64(p.Deadline()) + 1) * n.k
	for len(n.queue) > 0 {
		i := 0
		for j, e := range n.queue {
			if e.at < n.queue[i].at || e.at == n.queue[i].at && e.seq < n.queue[i].seq {
				i = j
			}
		}
		e := n.queue[i]
		if e.at >= end {
			return
		}
		n.queue = slices.Delete(n.queue, i, i+1)
		n.now = e.at
		n.ctx.Reset(n, e.host, 0)
		if e.msg != nil {
			n.handlers[e.host].Receive(&n.ctx, *e.msg)
		} else {
			n.handlers[e.host].Timer(&n.ctx, e.tag)
		}
	}
}

// TestWildfireMinValidOnFastDetour is the schedule on which a hop-count
// early deadline silently loses the minimum. h_q has an edge to y and a
// six-hop detour to it; a hub z joins h_q, y and the detour, keeping the
// diameter small; a chain runs from y to x, which holds the minimum. With
// δ = 16 sub-ticks, detour edges take one sub-tick and every other edge
// sixteen, so y and the chain first hear the query six hops further out
// than they are. A deadline taken from that hop count ends y's and x's
// participation before x's value is back at y; one taken from the
// activation tick does not, so h_q answers 1.
func TestWildfireMinValidOnFastDetour(t *testing.T) {
	for _, chain := range []int{3, 5, 8} {
		const hq, y, z = 0, 1, 2
		detour := []graph.HostID{3, 4, 5, 6, 7}
		g := graph.New(8 + chain)
		fast := map[[2]graph.HostID]bool{}
		edge := func(a, b graph.HostID, quick bool) {
			g.AddEdge(a, b)
			fast[[2]graph.HostID{a, b}], fast[[2]graph.HostID{b, a}] = quick, quick
		}
		edge(hq, y, false)
		prev := graph.HostID(hq)
		for _, a := range detour {
			edge(prev, a, true)
			edge(z, a, false)
			prev = a
		}
		edge(prev, y, true)
		edge(z, hq, false)
		edge(z, y, false)
		prev = y
		for c := graph.HostID(8); int(c) < g.Len(); c++ {
			edge(prev, c, false)
			prev = c
		}
		g.SortAdjacency()
		values := make([]int64, g.Len())
		for h := range values {
			values[h] = 100
		}
		values[prev] = 1 // x, the chain's far end

		n := &subTickNet{g: g, values: values, k: 16, delay: func(a, b graph.HostID) int64 {
			if fast[[2]graph.HostID{a, b}] {
				return 1
			}
			return 16
		}}
		w := NewWildfire(Query{Kind: agg.Min, Hq: hq, DHat: g.Diameter(nil), Params: params()})
		n.run(t, w, 1)
		if v, ok := w.Result(); !ok || v != 1 {
			t.Errorf("chain of %d: min = %v (ok=%t), want 1: x's value never reached h_q", chain, v, ok)
		}
	}
}
