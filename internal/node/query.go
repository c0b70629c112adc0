package node

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/transport"
	"validity/internal/wire"
)

// QueryInstance is one query's materialized protocol state on this
// process: the protocol object (for result reading at the issuing
// process), the per-host handlers, the query's deadline in ticks, and the
// query's membership timeline.
// When the query retires, a later BuildInstance rebuilds in what this one
// built — Handlers and the protocol's per-host state — so read results
// through AwaitQueryResult or QueryResult, which serve the answer frozen at
// retirement; a Protocol held past it reports its own answer or nothing.
type QueryInstance struct {
	// Protocol is the installed protocol; nil for handler-only instances.
	Protocol protocol.Protocol
	// Handlers[h] is host h's state machine (nil for non-local hosts).
	Handlers []sim.Handler
	// Seed is what the query's hosts derive their coin streams from
	// (sim.NewCoins of Seed and the host): QuerySeed of the fleet's seed and
	// the query id, identical at every process.
	Seed int64
	// Deadline is the query's termination time 2·D̂ in δ ticks. A query
	// retires when it is answered; one nobody reads retires on a timer well
	// after the deadline has passed.
	Deadline sim.Time
	// Origin is the query's issuing host h_q. Factories must set it for
	// cross-process quiescence to engage: worker processes send their
	// quiet announces to the process serving Origin and retire the query
	// on that process's Done, and a process that serves Origin itself
	// never announces. With quiescence disabled (or no roster) the field
	// is inert.
	Origin graph.HostID
	// Churn is the query's membership timeline, in ticks of this query's
	// own clock: from a Leave tick on, host h is dead for this query —
	// drops its frames, fires no timers, says nothing — while other
	// queries sharing the fleet keep hearing from it; a Join tick
	// un-suppresses it again (frames, timers, and sends resume on this
	// query's clock), with a late joiner's handler started lazily exactly
	// like first contact. Factories must derive it deterministically from
	// the shared seed and the query id (churn.Source + churn.QuerySeed),
	// so every process enforces the identical timeline with no churn
	// coordination on the wire. It is the only record of a host's
	// liveness the runtime keeps: a host switched off for good is a Leave
	// at tick 0 on every query's timeline.
	Churn churn.Timeline

	slab *slab // what BuildInstance built in; nil if the factory built it
}

// QueryFactory builds the local protocol instance for a query on first
// contact. Every process of a fleet must register a factory that derives
// an identical query spec from the id alone (shared flags + seed), so a
// frame arriving for a not-yet-seen query can be answered without any
// registration handshake.
type QueryFactory func(id QueryID) (*QueryInstance, error)

// SetQueryFactory registers the factory used to lazily instantiate
// queries. It must be set before traffic arrives (i.e. before Start).
func (rt *Runtime) SetQueryFactory(f QueryFactory) {
	rt.mu.Lock()
	rt.factory = f
	rt.mu.Unlock()
}

// QuerySeed derives the per-query coin seed from the fleet's shared seed.
// It depends only on (shared, id), so every process tosses identical FM
// coins for a host regardless of which process serves it.
func QuerySeed(shared int64, id QueryID) int64 {
	return shared ^ (int64(id)+1)*0x2545F4914F6CDD1D
}

// StartQuery instantiates query id locally via the registered factory and
// invokes Start on every local host's handler — the issuing side of the
// engine. Remote processes need no call: their instances materialize on
// first contact with the query's frames.
func (rt *Runtime) StartQuery(id QueryID) (*QueryInstance, error) {
	if id < 1 {
		return nil, fmt.Errorf("node: query ids must be ≥ 1, got %d", id)
	}
	qs, created, err := rt.queryForErr(id, true)
	if err != nil {
		return nil, err
	}
	if qs == nil {
		return nil, fmt.Errorf("node: no query factory registered")
	}
	if !created {
		return nil, fmt.Errorf("node: query %d already instantiated", id)
	}
	if rt.trace != nil {
		rt.trace.Record(int64(id), obs.EvIssued, -1, 0, "")
	}
	// The whole fan-out goes on the books before the first Start can come
	// off them, or a fast shard would read zero halfway through the loop.
	qs.inflight.Add(int64(len(rt.localHosts)))
	for _, h := range rt.localHosts {
		rt.enqueue(h, item{kind: itemStart, qs: qs})
	}
	return qs.inst.Load(), nil
}

// QueryResult reads query id's declared result at host h, executing the
// read on h's shard worker so it cannot race in-flight handler callbacks.
// Once AwaitQueryResult has answered the query its protocol state is gone
// and the answer it froze is served instead, until compaction.
func (rt *Runtime) QueryResult(id QueryID, h graph.HostID) (float64, bool, error) {
	qs := rt.lookupQuery(id)
	if qs == nil {
		return 0, false, fmt.Errorf("node: query %d has no protocol instance here", id)
	}
	if a := qs.answer.Load(); a != nil {
		return a.v, a.ok, nil
	}
	var v float64
	var ok, live bool
	if inst := qs.inst.Load(); inst != nil && inst.Protocol != nil {
		// Retirement is checked on h's worker: until then h's itemRetire,
		// and with it the recycling of the query's storage, waits behind.
		if err := rt.Do(h, func() {
			if live = !qs.retired.Load(); live {
				v, ok = inst.Protocol.Result()
			}
		}); err != nil {
			return 0, false, err
		}
	}
	if live {
		return v, ok, nil
	}
	if a := qs.answer.Load(); a != nil {
		return a.v, a.ok, nil
	}
	return 0, false, fmt.Errorf("node: query %d has no protocol instance here (retired?)", id)
}

// queryEntry is the demux map's slot for one QueryID. The factory runs
// inside the entry's once, outside rt.mu: materializing handlers for a
// 10K-host query takes real time, and holding the runtime lock for it
// would stall every host callback and transport delivery in the process.
// Concurrent first contacts for the same id block on the once instead.
type queryEntry struct {
	once sync.Once
	qs   *queryState // nil while the factory is still running
	err  error       // non-nil if the factory failed (qs is a tombstone)
}

// lookupQuery returns id's state without instantiating anything (nil while
// unknown or still materializing).
func (rt *Runtime) lookupQuery(id QueryID) *queryState {
	rt.mu.Lock()
	e := rt.queries[id]
	rt.mu.Unlock()
	if e == nil {
		return nil
	}
	return e.qs
}

// queryForErr resolves id to its local state, lazily instantiating it via
// the factory when create is set; the bool reports whether this call ran
// the factory. Factory failures leave a retired tombstone so the factory
// runs at most once per id.
func (rt *Runtime) queryForErr(id QueryID, create bool) (*queryState, bool, error) {
	if id < 1 {
		// QueryID is read off the network: a corrupt or hostile frame must
		// not reach the factory (whose spec derivation assumes ids ≥ 1).
		return nil, false, nil
	}
	rt.mu.Lock()
	e, ok := rt.queries[id]
	f := rt.factory // the once body may run on any contender's goroutine
	if !ok {
		if rt.retired.seen(id) {
			// Compacted id: a straggler frame must not resurrect the query
			// through the factory — the engine does not recycle ids.
			rt.mu.Unlock()
			return nil, false, nil
		}
		if !create || f == nil {
			rt.mu.Unlock()
			return nil, false, nil
		}
		// Admission control: a saturated runtime refuses to materialize new
		// query state. No entry or tombstone is created, so a retry after
		// load drops — or after retired queries compact away — can still
		// succeed.
		if rt.maxLive >= 0 && len(rt.queries) >= rt.maxLive {
			rt.mu.Unlock()
			rt.met.rejected.Inc()
			if rt.trace != nil {
				rt.trace.Record(int64(id), obs.EvFrameDrop, -1, 0, dropRejected)
			}
			return nil, false, fmt.Errorf("node: query %d: %w (cap %d)", id, ErrQueryRejected, rt.maxLive)
		}
		e = &queryEntry{}
		rt.queries[id] = e
	}
	rt.mu.Unlock()

	created := false
	e.once.Do(func() {
		created = true
		inst, err := f(id)
		var qs *queryState
		if err != nil || inst == nil {
			if err == nil {
				err = fmt.Errorf("node: factory returned no instance for query %d", id)
			}
			qs = newQueryState(rt, id, nil, 0)
			qs.retired.Store(true) // tombstone: the factory runs once per id
			e.err = fmt.Errorf("node: instantiating query %d: %w", id, err)
		} else {
			qs = newQueryState(rt, id, inst, inst.Deadline)
			rt.met.instantiated.Inc()
		}
		// Publish under rt.mu: lookupQuery/Stats read e.qs without going
		// through the once.
		rt.mu.Lock()
		e.qs = qs
		rt.mu.Unlock()
		if e.err == nil {
			rt.scheduleRetire(qs)
		} else {
			// Tombstones must not leak either: compact them onto the ring
			// after the grace window, so an unbounded stream of failing (or
			// hostile unknown) ids cannot grow the demux map forever.
			rt.scheduleEntry(timerEntry{
				when: time.Now().Add(retireGrace),
				kind: tkCompact,
				id:   id,
			})
		}
	})
	if e.err != nil {
		return nil, created, e.err
	}
	return e.qs, created, nil
}

// retire marks qs dead to the dispatcher, drops the protocol instance, and
// hands each local host's shard worker an itemRetire; the last of those to
// run recycles the query's storage, so nothing is reused while an in-flight
// callback could still touch it. Stats counters and a frozen answer
// survive retirement.
// Of its three callers — why is
// "answered" at the issuer's read, "done" on a worker told so, "timer" at
// the tkRetire backstop — the first wins and the rest are no-ops, so a
// query is counted, traced and fanned out once; it reports whether this
// call was the one.
func (rt *Runtime) retire(qs *queryState, why string) bool {
	if !qs.retired.CompareAndSwap(false, true) {
		return false
	}
	qs.inst.Store(nil)
	rt.met.retired.Inc()
	if rt.trace != nil {
		rt.trace.Record(int64(qs.id), obs.EvRetired, -1, qs.tickNow(rt), why)
	}
	for _, h := range rt.localHosts {
		rt.dispatch(h, item{kind: itemRetire, qs: qs})
	}
	return true
}

// release retires a query the moment it is over — h_q has declared (§3.1:
// nothing is owed after that) — instead of at the tkRetire backstop, and
// re-arms compaction one grace out from now, so live state and the
// admission cap track queries in flight. The entries scheduleRetire armed
// still fire later and find nothing left to do.
func (rt *Runtime) release(qs *queryState, why string) {
	if rt.retire(qs, why) {
		rt.scheduleEntry(timerEntry{when: time.Now().Add(retireGrace), kind: tkCompact, id: qs.id})
	}
}

// retireGrace is wall-clock slack before retired state is forgotten: past
// twice the query deadline before the backstop retires a query nobody
// read, and between any retirement and compaction. Late frames within it
// still count as (dropped) traffic, after it they are indistinguishable
// from a new query's id being recycled, which the engine does not allow.
const retireGrace = 2 * time.Second

// answer is the terminal read AwaitQueryResult froze into the query.
type answer struct {
	v  float64
	ok bool
}

// queryState is the engine's per-query bookkeeping: handlers, clock, and
// §6.3 counters.
type queryState struct {
	id QueryID
	// inst is the protocol object until retirement clears it. From then on
	// the only result readable is answer, set (before inst clears) when the
	// retirement was AwaitQueryResult's.
	inst   atomic.Pointer[QueryInstance]
	answer atomic.Pointer[answer]
	// The query's handlers, coins and started flags (install.go); the
	// itemRetire that takes unretired — local hosts yet to retire — to zero
	// recycles them. coins[h] is reseeded from (seed, h) when h starts.
	*slab
	unretired atomic.Int32
	seed      int64
	be        *queryBackend
	deadline  sim.Time

	// The query clock arms at the query's first send or delivery in this
	// process, not at instantiation: shards see a query at different wall
	// times, and the protocols' tick guards measure time since the query
	// reached them. A host at distance l from h_q therefore reads a clock
	// late by at most l·δ — the same skew any real deployment of the §3.1
	// model lives with. Monotonic (time.Time anchor), per query: a query
	// starting late must not inherit an earlier query's elapsed ticks.
	clockOnce  sync.Once
	clockStart atomic.Pointer[time.Time]

	// Per-query membership (nil when the query has no churn timeline):
	// membership indexes the timeline on this query's clock, and dead[h]
	// tracks h's current state — seeded at instantiation from the
	// timeline's tick-0 membership (a tick-0 departure or a late joiner
	// starts dead), then flipped by timer-heap entries armed when the
	// query clock arms: a Leave tick marks the host dead for this query, a
	// Join tick marks it alive again and re-runs its lazy Start if it
	// never lived. Dead-for-this-query hosts drop deliveries, fire no
	// timers, and send nothing, all without touching the host's liveness
	// on any other query.
	membership *churn.Index
	dead       []atomic.Bool

	// Cross-process quiescence state (quiesce.go), all under qmu. On a
	// worker process (origin remote) the q* fields drive the announce
	// epoch machine; on the issuer peerQuiet holds the latest report per
	// peer process. origin is the instance's issuing host, -1 when the
	// instance declared none.
	origin     graph.HostID
	qmu        sync.Mutex
	qEpoch     uint32
	qAnnounced bool
	qLastAct   int64
	qActSince  time.Time
	peerQuiet  map[int32]quiesceReport

	// inflight counts the query's outstanding work in this process: frames
	// addressed to a local host and not yet consumed, protocol timers armed
	// and not yet fired, Starts queued and not yet run. Every item goes on
	// before it can be seen and comes off only after the callback consuming
	// it has returned (or on the drop path that swallows it), so whatever a
	// handler sends or arms is on the books before its own receipt comes off
	// — the counter cannot pass through zero while work remains. idle closes
	// at the first return to zero; on a runtime serving every host that is
	// the protocol's termination, and AwaitQueryResult blocks on it.
	inflight atomic.Int64
	idle     chan struct{}
	idleOnce sync.Once

	retired   atomic.Bool
	sent      atomic.Int64
	bytes     atomic.Int64
	delivered atomic.Int64
	dropped   atomic.Int64
	processed []int64 // updated with atomics
	timeCost  atomic.Int64
}

func newQueryState(rt *Runtime, id QueryID, inst *QueryInstance, deadline sim.Time) *queryState {
	n := rt.g.Len()
	qs := &queryState{
		id:        id,
		deadline:  deadline,
		origin:    -1,
		idle:      make(chan struct{}),
		processed: make([]int64, n),
	}
	qs.unretired.Store(int32(len(rt.localHosts)))
	if inst != nil {
		qs.inst.Store(inst)
		qs.seed = inst.Seed
		if inst.Origin >= 0 && int(inst.Origin) < n {
			qs.origin = inst.Origin
		}
		// The slab is this query's alone, however often the factory returns
		// inst; a factory's own handlers are copied into a slab of rt's.
		qs.slab, inst.slab = inst.slab, nil
		if qs.slab == nil {
			qs.slab = rt.takeSlab()
			clear(qs.handlers)
			copy(qs.handlers, inst.Handlers)
		}
		if len(inst.Churn) > 0 {
			// Degenerate negative event times mean "before the query
			// existed": clamp them to tick 0 so a departure reads as
			// dead-from-the-start and a join as present-from-the-start.
			tl := make(churn.Timeline, len(inst.Churn))
			for i, e := range inst.Churn {
				if e.T < 0 {
					e.T = 0
				}
				tl[i] = e
			}
			qs.membership = tl.Index()
			qs.dead = make([]atomic.Bool, n)
			for h := 0; h < n; h++ {
				// Tick-0 state: a departure at tick 0 precedes any traffic
				// (the host was never a member of this query, so it must
				// not even run Start), and a late joiner is dead until its
				// join tick fires.
				if !qs.membership.AliveAt(graph.HostID(h), 0) {
					qs.dead[h].Store(true)
				}
			}
		}
	}
	qs.be = &queryBackend{rt: rt, qs: qs}
	return qs
}

// workDone takes one consumed (or swallowed) item off the books.
func (qs *queryState) workDone() {
	if qs.inflight.Add(-1) == 0 {
		qs.idleOnce.Do(func() { close(qs.idle) })
	}
}

// hostDead reports whether h has departed on this query's membership
// timeline (independent of the host's liveness for other queries).
func (qs *queryState) hostDead(h graph.HostID) bool {
	return qs.dead != nil && qs.dead[h].Load()
}

// markDead executes h's scheduled departure for this query.
func (qs *queryState) markDead(h graph.HostID) {
	if qs.dead != nil {
		qs.dead[h].Store(true)
	}
}

// markAlive executes h's scheduled join for this query: the host's
// frames, timers, and sends resume on this query's clock. The caller
// (the timer loop) follows up with an itemStart dispatch so a late
// joiner's handler runs Start lazily, exactly like first contact.
func (qs *queryState) markAlive(h graph.HostID) {
	if qs.dead != nil {
		qs.dead[h].Store(false)
	}
}

// startHost reseeds h's coins and runs hd.Start, exactly once for host h,
// on the calling worker's context; must be called from the shard worker
// owning h.
func (qs *queryState) startHost(h graph.HostID, hd sim.Handler, ctx *sim.Context) {
	if qs.started[h] {
		return
	}
	qs.started[h] = true
	qs.coins[h].Reseed(qs.seed, h)
	ctx.Reset(qs.be, h, 0)
	hd.Start(ctx)
}

// armClock starts the query clock if it is not yet running, converts the
// query's membership timeline into absolute timer-heap entries for the
// local hosts (a transition at tick k fires k·δ after the clock armed —
// departures as tkQueryDead, joins as tkQueryJoin).
func (qs *queryState) armClock(rt *Runtime) {
	qs.clockOnce.Do(func() {
		t := time.Now()
		qs.clockStart.Store(&t)
		if rt.trace != nil {
			rt.trace.Record(int64(qs.id), obs.EvFirstTraffic, -1, 0, "")
		}
		// Quiescence announces measure silence from first traffic, so the
		// worker's epoch machine arms with the clock.
		rt.armQuiesce(qs, t)
		if qs.membership != nil {
			for _, h := range rt.localHosts {
				for _, e := range qs.membership.HostEvents(h) {
					if e.T <= 0 {
						continue // tick-0 state was seeded at instantiation
					}
					kind := tkQueryDead
					if e.Kind == churn.Join {
						kind = tkQueryJoin
					}
					rt.scheduleEntry(timerEntry{
						when: t.Add(time.Duration(e.T) * rt.hop),
						kind: kind,
						h:    h,
						id:   qs.id,
					})
				}
			}
		}
	})
}

func (qs *queryState) observeChain(chain int) {
	for {
		cur := qs.timeCost.Load()
		if int64(chain) <= cur || qs.timeCost.CompareAndSwap(cur, int64(chain)) {
			return
		}
	}
}

func (qs *queryState) snapshot() Stats {
	s := Stats{
		MessagesSent:      qs.sent.Load(),
		BytesOnWire:       qs.bytes.Load(),
		MessagesDelivered: qs.delivered.Load(),
		MessagesDropped:   qs.dropped.Load(),
		PerHostProcessed:  make([]int64, len(qs.processed)),
		TimeCost:          int(qs.timeCost.Load()),
	}
	for h := range qs.processed {
		s.PerHostProcessed[h] = atomic.LoadInt64(&qs.processed[h])
	}
	return s
}

// --- sim.Backend, one per query ------------------------------------------

// queryBackend implements sim.Backend for one query on one runtime: its
// Now is the query clock, its Rand the query's per-host coin streams, its
// Send stamps frames with the QueryID and feeds the query's cost counters,
// and its SetTimer goes through the runtime's shared timer heap.
type queryBackend struct {
	rt *Runtime
	qs *queryState
}

// Now implements sim.Backend: wall time since this query's clock armed, in
// δ hop units; zero until the query has seen any traffic here.
func (b *queryBackend) Now() sim.Time {
	start := b.qs.clockStart.Load()
	if start == nil || b.rt.hop <= 0 {
		return 0
	}
	return sim.Time(time.Since(*start) / b.rt.hop)
}

// Value implements sim.Backend.
func (b *queryBackend) Value(h graph.HostID) int64 { return b.rt.values[h] }

// Graph implements sim.Backend.
func (b *queryBackend) Graph() *graph.Graph { return b.rt.g }

// Medium implements sim.Backend: a transport frame has one destination.
func (b *queryBackend) Medium() sim.Medium { return sim.MediumPointToPoint }

// Rand implements sim.Backend: h's stream, seeded by startHost, which
// precedes every callback of h. All of them run on h's one shard worker,
// so the unsynchronized stream has a single user.
func (b *queryBackend) Rand(h graph.HostID) *rand.Rand { return b.qs.coins[h].Rand }

// SendAll implements sim.Backend: one Send per neighbor.
func (b *queryBackend) SendAll(from, skip graph.HostID, payload any, chain int) {
	for _, to := range b.rt.g.Neighbors(from) {
		if to != skip {
			b.Send(from, to, payload, chain)
		}
	}
}

// Send implements sim.Backend: the message goes to the transport stamped
// with the query id, and is delivered if the destination is alive at
// arrival. A frame that does not reach its receiver as a Go value — a
// departed sender's, one the transport refused, one it serialized — has
// its payload's reference ended here (Transport.Send).
func (b *queryBackend) Send(from, to graph.HostID, payload any, chain int) {
	rt, qs := b.rt, b.qs
	if qs.hostDead(from) {
		sim.Release(payload)
		return // a departed host says nothing more (§3.2), per query here
	}
	qs.armClock(rt)
	size := int64(payloadWireSize(payload))
	qs.sent.Add(1)
	qs.bytes.Add(size)
	rt.met.sent.Inc()
	rt.met.bytesOut.Add(size)
	toLocal := rt.Local(to)
	if toLocal {
		qs.inflight.Add(1)
	}
	err := rt.tr.Send(transport.Message{From: from, To: to, Query: qs.id, Chain: chain, Payload: payload})
	if err != nil {
		qs.dropped.Add(1)
		rt.met.dropSendErr.Inc()
		rt.traceDrop(qs, from, chain, dropSendErr)
		if toLocal {
			qs.workDone()
		}
	}
	if err != nil || rt.serializes[to] {
		sim.Release(payload)
	}
}

// SetTimer implements sim.Backend: the tick delta becomes an entry on the
// runtime's timer heap whose firing is serialized through the host's inbox
// like any other callback.
//
// A timer for the current tick means "end of this round": the event loop
// fires it after all of the tick's deliveries (evDeliver orders before
// evTimer), which is how WILDFIRE batches a round's arrivals into one
// flush (Example 5.1). The live realization is a quarter-hop delay — long
// enough to gather the messages of the same causal round, short enough
// that receive (≤ δ/2 on the channel transport) plus flush stays within
// the advertised per-hop bound δ.
func (b *queryBackend) SetTimer(h graph.HostID, at sim.Time, tag, chain int) {
	delay := time.Duration(at-b.Now()) * b.rt.hop
	if delay <= 0 {
		delay = b.rt.hop / 4
	}
	b.qs.inflight.Add(1)
	b.rt.scheduleEntry(timerEntry{
		when:  time.Now().Add(delay),
		kind:  tkTimer,
		h:     h,
		qs:    b.qs,
		tag:   tag,
		chain: chain,
	})
}

// payloadWireSize is the canonical on-wire cost of a payload: the exact
// version-4 transport frame size (length prefix + header + payload body)
// where a payload codec is registered, zero otherwise (payloads outside
// the wire format). This is byte-for-byte what the TCP transport writes,
// so the §6.3 accounting charges the cost we actually pay — the chan
// transport never serializes, but is charged as if it had.
func payloadWireSize(payload any) int {
	n, err := wire.FrameSize(payload)
	if err != nil {
		return 0
	}
	return n
}
