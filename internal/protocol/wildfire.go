package protocol

import (
	"slices"
	"sync"
	"sync/atomic"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// Wildfire is the paper's protocol (§5.1). Broadcast floods the query with
// the sender's partial aggregate piggybacked (footnote 4); from the moment
// a host becomes active it participates in convergecast: whenever its
// partial aggregate changes it refloods the new partial to its neighbors.
// Because the combine function is duplicate-insensitive, values may travel
// along every surviving path, which is what buys Single-Site Validity.
//
// The protocol operates in the paper's synchronous-round style: all
// messages arriving at a host in the same tick are combined first and at
// most one updated partial per tick is sent out (Example 5.1 walks exactly
// such rounds). Per-neighbor duplicate suppression skips neighbors that
// are already known to hold the host's current partial — the Fig. 4 /
// Example 5.1 "skips sending the value back" refinement generalized.
//
// Two engineering optimizations from §5.3 are implemented:
//
//   - EarlyDeadline: a host activated at tick t_act participates until
//     (2D̂ − t_act + 1)δ instead of 2D̂δ (a message sent later could not
//     reach h_q in time anyway). §5.3 states it for a host at distance l;
//     every hop takes at most δ, so t_act ≤ l and this deadline is never
//     earlier, whereas the hop count of the first broadcast heard can
//     exceed l when a longer path is faster, and silence the host early.
//   - The wireless medium optimization is inherited from the simulator:
//     under sim.MediumWireless a send-to-all-neighbors costs one message.
type Wildfire struct {
	Query Query
	// EarlyDeadline enables the per-host participation deadline.
	EarlyDeadline bool
	// ValueFn, when non-nil, overrides the attribute value a host
	// contributes; it receives the host ID and its broadcast distance
	// from h_q. This realizes the ad-hoc query model of §3.1 (values
	// "generated at each host in a query-dependent manner") — the
	// DiameterProbe uses it to aggregate distances instead of stored
	// values.
	ValueFn func(h graph.HostID, dist int) int64

	hosts []wfHost // rebuilt in place by NewHost, handed on by Reuse
}

// NewWildfire returns an uninstalled WILDFIRE instance with the §5.3
// early-deadline optimization enabled (as in the paper's evaluation).
func NewWildfire(q Query) *Wildfire {
	return &Wildfire{Query: q, EarlyDeadline: true}
}

// Name implements Protocol.
func (w *Wildfire) Name() string { return "wildfire" }

// Deadline implements Protocol.
func (w *Wildfire) Deadline() sim.Time { return w.Query.Deadline() }

// Init implements Protocol. It keeps host storage that fits g, as Reuse's
// does, so one Wildfire serves one query at a time.
func (w *Wildfire) Init(g *graph.Graph) error {
	if err := w.Query.Validate(g); err != nil {
		return err
	}
	if len(w.hosts) != g.Len() {
		w.hosts = make([]wfHost, g.Len())
	}
	return nil
}

// Reuse takes over the hosts of old, a retired query's Wildfire, ahead of
// Init; NewHost and activation rebuild them in place, partials included.
// old keeps none and declares nothing from then on. Any other protocol, or
// w itself, hands over nothing.
func (w *Wildfire) Reuse(old Protocol) {
	if o, ok := old.(*Wildfire); ok && o != w {
		w.hosts, o.hosts = o.hosts, nil
	}
}

// NewHost implements Protocol. Of what the slot held before it keeps only
// the storage activation rebuilds in.
func (w *Wildfire) NewHost(h graph.HostID) sim.Handler {
	host := &w.hosts[h]
	*host = wfHost{w: w, isHq: h == w.Query.Hq, partial: host.partial, lastSent: host.lastSent}
	return host
}

// Install implements Protocol.
func (w *Wildfire) Install(nw *sim.Network) error { return install(w, nw) }

// Result implements Protocol: the partial aggregate at h_q at the
// deadline.
func (w *Wildfire) Result() (float64, bool) {
	if p := w.Partial(); p != nil {
		return p.Result(), true
	}
	return 0, false
}

// Partial exposes h_q's final partial aggregate for the oracle's sketch-
// level validity check; nil until h_q is active, where it is not served,
// and once a later query's Wildfire has taken the hosts over (Reuse).
func (w *Wildfire) Partial() *agg.Partial {
	if w.Query.Hq < 0 || int(w.Query.Hq) >= len(w.hosts) {
		return nil
	}
	hq := &w.hosts[w.Query.Hq]
	if hq.w != w || !hq.active {
		return nil // never built by this Wildfire, or not yet activated
	}
	return &hq.partial
}

// wfBroadcast is the Phase I message [q, 0, D̂] with the sender's partial
// aggregate piggybacked (§5.1 footnote 4); its snapshot carries the hop.
// Like wfConverge, it is pointer-shaped.
type wfBroadcast struct {
	S *wfSnap
}

// wfConverge is the Phase II message [q, A_h']. It is pointer-shaped, so
// boxing it into a Send's payload allocates nothing.
type wfConverge struct {
	S *wfSnap
}

// Release ends the frame's ref on its snapshot when no Receive will: a
// backend calls it (sim.Release) on a frame it drops or serializes.
func (b wfBroadcast) Release() { b.S.release() }

// Release is wfBroadcast.Release for a converge frame.
func (c wfConverge) Release() { c.S.release() }

// wfSnap is a snapshot of a host's partial, shared by every frame that
// carries it and never mutated while any of them is alive. refs counts the
// frames, all taken before the first is sent, so that no release can
// precede a send; the host keeps none. Every frame's ref ends exactly once:
// Receive uses it up, whatever it makes of the frame, and a frame finished
// without one — dropped at a dead host, a host with no handler or a query
// that is gone, suppressed at a departed sender, refused by the transport,
// or encoded for another process — is released by its backend (Release).
// The release that reaches zero puts the snapshot back in snapPool, and
// the next takeSnap — or the next WILDFIRE frame the wire decodes —
// overwrites its partial in place. A ref never released (a frame still in
// flight when its transport closes) only leaves its snapshot to the
// garbage collector: a missed release costs an allocation, never an
// answer.
type wfSnap struct {
	a agg.Partial // held inline: the pool recycles it with the snapshot
	// hop is a broadcast's: the sender's distance from h_q plus one, the
	// same for every frame of one send. A wfConverge's is 0 and unsent.
	hop  int
	refs atomic.Int32
}

var snapPool = sync.Pool{New: func() any { return new(wfSnap) }}

// takeSnap returns a snapshot of p at hop from the pool holding n refs,
// one per frame about to carry it.
func takeSnap(p *agg.Partial, hop, n int) *wfSnap {
	s := snapPool.Get().(*wfSnap)
	s.a.Assign(p)
	s.hop = hop
	s.refs.Store(int32(n))
	return s
}

// partial is the snapshot's partial; nil for a frame that carries no
// snapshot, and one that holds no aggregate for a decoded has = 0.
func (s *wfSnap) partial() *agg.Partial {
	if s == nil {
		return nil
	}
	return &s.a
}

// release drops one ref; the last puts the snapshot back in the pool.
func (s *wfSnap) release() {
	if s != nil && s.refs.Add(-1) == 0 {
		snapPool.Put(s)
	}
}

const wfTagFlush = 3

// wfHost is one host's state for one query, minted only on the process
// that serves the host. It holds no snapshot: what it keeps per neighbor is
// a version stamp, never a partial, and every send copies the partial into
// a snapshot from the pool (takeSnap) with refs for exactly the frames
// about to carry it — Degree() for a SendAll, Degree()−1 for a
// SendAllExcept, one per neighbor that lacks the version for a flush. Once
// the last of those frames is received, the snapshot is back in the pool
// for the next one to be copied into.
//
// The host lives in its Wildfire's hosts, which Reuse hands on to a later
// query once the live engine has retired this one.
type wfHost struct {
	w       *Wildfire
	isHq    bool
	active  bool
	act     sim.Time    // the tick the host activated at
	partial agg.Partial // inline: activation rebuilds it in place, whatever kind it held
	// version stamps partial's state: 1 at activation, +1 exactly when
	// Combine reports a change. Partials only grow: equal stamps, equal state.
	version uint32
	// lastSent[i], indexed like ctx.Neighbors(): the version of our state
	// neighbor i is known to hold (0: none), because we sent it or because
	// what i sent equalled it; one that holds the current version is skipped
	// on flush. Partials only grow, so i's partial covers ours only if it
	// equalled ours at receipt and nothing changed since: the stamp says so.
	lastSent []uint32
	dirty    bool
	flushing bool // a flush timer is pending for the current tick
}

// limit is this host's participation deadline.
func (h *wfHost) limit() sim.Time {
	full := sim.Time(2 * h.w.Query.DHat)
	if !h.w.EarlyDeadline || !h.active {
		return full
	}
	return min(full, full-h.act+1)
}

func (h *wfHost) Start(ctx *sim.Context) {
	if !h.isHq {
		return
	}
	h.activate(ctx, 0, nil)
	ctx.SendAll(wfBroadcast{S: takeSnap(&h.partial, 1, ctx.Degree())})
	h.noteSentToAll(ctx, graph.None)
}

// activate initializes the host's state; dist is the activating
// broadcast's hop count and incoming, when non-nil, its piggybacked partial.
func (h *wfHost) activate(ctx *sim.Context, dist int, incoming *agg.Partial) {
	h.active = true
	h.act = ctx.Now()
	value := ctx.Value()
	if h.w.ValueFn != nil {
		value = h.w.ValueFn(ctx.Self(), dist)
	}
	h.partial.Init(h.w.Query.Kind, value, h.w.Query.Params, ctx.Rand())
	h.version = 1
	h.lastSent = append(h.lastSent[:0], make([]uint32, ctx.Degree())...)
	if incoming != nil && h.partial.Combine(incoming) {
		h.version++
	}
}

func (h *wfHost) noteSentToAll(ctx *sim.Context, skip graph.HostID) {
	for i, n := range ctx.Neighbors() {
		if n != skip {
			h.lastSent[i] = h.version
		}
	}
}

func (h *wfHost) Receive(ctx *sim.Context, msg sim.Message) {
	b, broadcast := msg.Payload.(wfBroadcast)
	s := b.S
	if !broadcast {
		c, ok := msg.Payload.(wfConverge)
		if !ok {
			return
		}
		s = c.S
	}
	// The frame's ref ends with this call, whichever way it returns.
	defer s.release()
	// from indexes ctx.Neighbors(); a frame from anywhere else did not
	// travel an edge of G (§3.1) and is not this protocol's.
	from := slices.Index(ctx.Neighbors(), msg.From)
	if from < 0 {
		return
	}
	// The partial came off the wire too. One of another kind or other
	// sketch dimensions, or none at all, would panic Combine on the shard
	// worker and take every query of the process down with it.
	q := &h.w.Query
	a := s.partial()
	if !agg.Conforms(a, q.Kind, q.Params) {
		return
	}
	if broadcast {
		h.onBroadcast(ctx, from, msg.From, s.hop, a)
	} else {
		h.onConverge(ctx, from, a)
	}
}

func (h *wfHost) onBroadcast(ctx *sim.Context, from int, sender graph.HostID, hop int, a *agg.Partial) {
	if h.active {
		// Fig. 3: an active host drops the Broadcast message — but the
		// piggybacked partial is still convergecast information (§5.1).
		h.onConverge(ctx, from, a)
		return
	}
	// Fig. 3 guard: activate only if t < 2D̂δ.
	if ctx.Now() >= sim.Time(2*h.w.Query.DHat) {
		return
	}
	// Hop comes off the wire. One that is no path length in G is a stale
	// or hostile frame's, and ValueFn must not see it.
	if hop < 1 || hop >= len(h.w.hosts) {
		return
	}
	h.activate(ctx, hop, a)
	// Forward the query with our partial piggybacked (the first
	// convergecast message rides on the broadcast, footnote 4).
	ctx.SendAllExcept(sender, wfBroadcast{S: takeSnap(&h.partial, hop+1, ctx.Degree()-1)})
	h.noteSentToAll(ctx, sender)
	// If combining changed anything relative to what the sender already
	// knows, the end-of-tick flush will reply to the sender (Example 5.1:
	// x sends A_x back to w; y skips because A_y equals what w sent).
	if !h.partial.Equal(a) {
		h.markDirty(ctx)
	} else {
		h.lastSent[from] = h.version // sender already holds this state
	}
}

func (h *wfHost) onConverge(ctx *sim.Context, from int, a *agg.Partial) {
	if !h.active {
		return // cannot hold a partial before activation
	}
	// Fig. 4 guard: participate only until the (possibly early) deadline.
	if ctx.Now() > h.limit() {
		return
	}
	changed := h.partial.Combine(a)
	if changed {
		h.version++
	}
	same := h.partial.Equal(a)
	if same {
		h.lastSent[from] = h.version // the sender holds exactly our state now
	}
	// Reflood on change — and when we learned nothing but the sender lags
	// behind (Fig. 4's else-branch), schedule the catch-up reply with the
	// same batch.
	if changed || !same {
		h.markDirty(ctx)
	}
}

// markDirty schedules a flush at the end of the current tick; all
// messages arriving this tick are combined before anything is sent, which
// realizes the paper's synchronous rounds (Example 5.1).
func (h *wfHost) markDirty(ctx *sim.Context) {
	h.dirty = true
	if !h.flushing {
		h.flushing = true
		ctx.SetTimer(ctx.Now(), wfTagFlush)
	}
}

func (h *wfHost) Timer(ctx *sim.Context, tag int) {
	if tag != wfTagFlush {
		return
	}
	h.flushing = false
	if !h.dirty || !h.active {
		return
	}
	h.dirty = false
	if ctx.Now() > h.limit() {
		return
	}
	if ctx.Medium() == sim.MediumWireless {
		// One radio transmission reaches everyone; selective suppression
		// saves nothing (§5.3).
		ctx.SendAll(wfConverge{S: takeSnap(&h.partial, 0, ctx.Degree())})
		h.noteSentToAll(ctx, graph.None)
		return
	}
	// §5.1: a neighbor that already holds this state is skipped. The refs
	// of every frame are taken before the first goes out; a flush that
	// skips every neighbor takes no snapshot at all.
	n := 0
	for _, v := range h.lastSent {
		if v != h.version {
			n++
		}
	}
	if n == 0 {
		return
	}
	msg := wfConverge{S: takeSnap(&h.partial, 0, n)}
	for i, nb := range ctx.Neighbors() {
		if h.lastSent[i] != h.version {
			ctx.Send(nb, msg)
			h.lastSent[i] = h.version
		}
	}
}
