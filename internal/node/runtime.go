// Package node is the host-sharded runtime that executes the protocol
// state machines of internal/protocol — unchanged sim.Handler
// implementations — on real concurrent peers over any transport
// (internal/transport). It is the layer that turns the paper's
// reproduction into a deployable system: the same WILDFIRE handler that
// runs under the deterministic event loop for the figures runs here over
// in-process channels for the examples, or over TCP sockets for a fleet
// of validityd processes jointly answering queries (cmd/validityd).
//
// The runtime is a query engine: one long-running fleet multiplexes many
// concurrent queries. Every transport frame carries a QueryID, and each
// process demultiplexes frames to per-query protocol instances — lazily
// built on first contact from a registered QueryFactory; a host's FM coins
// derive from (query seed, host) alone (sim.NewCoins), so a sharded fleet
// and the event loop toss identical coins for a host no matter where it
// runs. Each query gets its own
// monotonic clock (armed at that query's first traffic in this process)
// and its own §6.3 cost accounting, so per-answer validity deadlines stay
// individually checkable while the fleet amortizes its infrastructure
// across queries. Query state lives as long as the query: it is retired
// when the answer is read (on the workers, when the issuer says so), with
// a timer well past the deadline as the backstop, and a live-query
// admission cap (Config.MaxLiveQueries) rejects new instantiations once
// the fleet saturates, so overload degrades into counted rejections
// instead of unbounded state.
//
// The mapping to the paper's model (§3.1–3.2): each peer is a host of G,
// and the per-hop delay bound δ is a configured wall-clock duration Hop —
// timers and deadlines expressed in ticks are realized as multiples of it.
// An end-user switching the application off is a Leave on the query's
// membership timeline (QueryInstance.Churn; tick 0 = never a member), the
// one place a host's liveness is recorded.
//
// Execution is host-sharded (§6 runs at 10,000 hosts; one goroutine and
// one deep inbox channel per host would cost ~10K goroutines and
// gigabytes of eagerly allocated buffers before a single query runs): a
// small pool of Config.Shards worker goroutines — by default one per
// available CPU — each owns a fixed partition of the local hosts and
// drains one bounded per-shard queue. All callbacks of a given host
// (receives across all queries, timer firings, Start, Do closures) are
// routed to that host's shard, so they still execute serialized and in
// enqueue order on a single goroutine — handlers written for the
// single-threaded event loop need no extra locking here — while memory
// drops from O(hosts × inboxCap) to O(shards × shardCap). Timers across
// all hosts and queries share one per-runtime timer heap drained by a
// single goroutine, and that loop never blocks on a congested shard: a
// full shard queue parks items on the shard's overflow list, fed in FIFO
// order by a transient drainer goroutine.
//
// Cost accounting mirrors §6.3 and sim.Stats per query: messages sent,
// bytes on the wire (internal/wire's canonical encoding), messages
// processed per host (computation cost is the max), and the longest
// causal chain of messages (time cost), carried across process boundaries
// in every transport frame.
package node

import (
	"errors"
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/sim"
	"validity/internal/transport"
	"validity/internal/wire"
)

// QueryID identifies one in-flight query across the fleet; it is the
// demux key carried in every transport frame. Valid ids are ≥ 1: the
// demux drops anything lower, read off the wire, as an unknown query.
type QueryID = transport.QueryID

// shardQueueCap is the default bound on a shard's pending-callback queue.
// A transport delivery goroutine blocks while it is full. That bounds no
// memory — a Channel's ring keeps whatever it has not yet delivered — but
// it measured faster than the alternative: with one unbounded FIFO per
// shard, bench's chan2k_count slowed (latency_ms_mid 765 → 793 ms,
// ops_per_s −3.9%, peak_heap_mb 7.7 → 9.8 on the 2-core reference box),
// and it is the only workload that ever fills a shard (2,370 of 1,989,599
// enqueues).
const shardQueueCap = 1024

// DefaultMaxLiveQueries is the admission cap applied when
// Config.MaxLiveQueries is zero: the number of queries with live
// (not-yet-compacted) state one runtime will hold before rejecting new
// instantiations.
const DefaultMaxLiveQueries = 4096

// ErrQueryRejected is returned (wrapped) by StartQuery when the live-query
// admission cap is reached; frames for not-yet-instantiated queries are
// dropped with the same accounting (engine_queries_rejected_total).
var ErrQueryRejected = errors.New("live-query admission cap reached")

// item is one serialized callback for a host, routed to the shard worker
// that owns the host.
type item struct {
	kind  itemKind
	h     graph.HostID
	qs    *queryState
	msg   transport.Message
	tag   int
	chain int
	fn    func()
}

type itemKind uint8

const (
	itemStart itemKind = iota
	itemMsg
	itemTimer
	itemFunc   // run an arbitrary closure on the host's shard worker (Do)
	itemRetire // count off a retired query's local host; the last recycles it
)

// shard is one worker's slice of the runtime: a bounded queue of host
// callbacks plus the overflow list the timer loop parks into when the
// queue is full. Every local host maps to exactly one shard (Runtime.
// shardOf), and only that shard's worker runs the host's callbacks, which
// is what keeps per-host execution serialized without a goroutine per
// host.
type shard struct {
	ch chan item

	// Overflow for dispatch(): items parked when ch is full, fed in FIFO
	// order by at most one drainer goroutine (busy) so the timer loop
	// never blocks behind a congested shard and per-host ordering is
	// preserved. ov[head:] is what is still parked; a popped slot is zeroed
	// so it keeps no query state reachable, and the array — sized by New —
	// is kept across bursts: pop resets ov to ov[:0] when it empties.
	mu   sync.Mutex
	ov   []item
	head int
	busy bool
}

// parked is the overflow's backlog; s.mu must be held.
func (s *shard) parked() int { return len(s.ov) - s.head }

// depth is the shard's pending-callback count: queued plus parked.
func (s *shard) depth() int {
	s.mu.Lock()
	parked := s.parked()
	s.mu.Unlock()
	return len(s.ch) + parked
}

// Config configures a Runtime.
type Config struct {
	// Graph is the global topology G; every participating process must
	// hold the same one (validityd regenerates it from a shared seed or
	// topology file).
	Graph *graph.Graph
	// Values are per-host attribute values (nil = all zeros). Only the
	// entries of locally served hosts are read.
	Values []int64
	// Transport carries messages between hosts. The Runtime binds its
	// local hosts on it and owns its lifecycle from Start to Stop.
	Transport transport.Transport
	// Hop is the wall-clock realization of the per-hop delay bound δ;
	// virtual time is time since a query's clock armed, divided by Hop.
	// Zero pins virtual time at 0 and fires all timers immediately
	// (useful only for tests).
	Hop time.Duration
	// Local lists the hosts this runtime serves; nil means all of them
	// (the single-process case).
	Local []graph.HostID
	// Shards is the number of worker goroutines executing host callbacks;
	// each owns a fixed partition of the local hosts. Zero means one per
	// available CPU (GOMAXPROCS), and the count is clamped to the local
	// host count — a 10K-host process runs ~NumCPU workers, not 10K
	// goroutines.
	Shards int
	// ShardQueue bounds each shard's pending-callback queue (0 = the
	// shardQueueCap default). Mainly a test knob: tiny queues force the
	// overflow path.
	ShardQueue int
	// MaxLiveQueries caps how many queries may hold live (not-yet-
	// compacted) state at once; instantiation beyond it — StartQuery or a
	// frame's first contact — is rejected and counted
	// (engine_queries_rejected_total), so a saturated fleet degrades into
	// predictable rejections instead of growing state. An answered query
	// compacts one grace (2 s) after its answer, so the cap bounds the
	// queries in flight plus those answered within the last grace, not
	// everything issued within twice a deadline. Zero applies
	// DefaultMaxLiveQueries; negative disables the cap.
	MaxLiveQueries int
	// Quiesce enables the cross-process quiescence control plane (see
	// quiesce.go): worker processes announce per-query silence to the
	// query's issuing process, whose AwaitQueryResult may then return at
	// true global quiescence instead of sleeping out the sharded
	// worst-case floor, and which tells them when the query is answered
	// so they drop its state too. It engages only together with a Roster
	// and a positive Hop, and only when some hosts are actually remote;
	// an all-local runtime counts its outstanding work and waits on nobody.
	Quiesce bool
	// Roster maps every host to the index of the process serving it —
	// the same partition on every process of the fleet (validityd
	// derives it from -peers). Required for Quiesce: the issuer must
	// know how many distinct peer processes owe it an announce, and
	// which process a frame's From host speaks for.
	Roster []int
	// Obs, when non-nil, receives the engine's metrics: demux and drop
	// counters, §6.3 sends/bytes, query lifecycle counts, and sampled
	// gauges for shard queue depth and timer-heap length (see obs.go).
	// Nil disables instrumentation at the cost of one branch per update.
	// A registry must not be shared between runtimes in one process — the
	// sampled gauges are per-runtime closures.
	Obs *obs.Registry
	// Trace, when non-nil, records per-query lifecycle events (issued,
	// first traffic, churn transitions, frame-drop reasons, retirement,
	// compaction) on bounded rings, each stamped with the query's own
	// tick. Nil disables tracing.
	Trace *obs.Tracer
}

// Stats is the one §6.3 record (sim.Stats), as this runtime observed it for
// one query (QueryStats) or summed over all queries (Stats). Sends,
// deliveries, drops, per-host computation and the longest causal chain are
// those of local hosts (zero for hosts served elsewhere); BytesOnWire is
// byte-for-byte what the TCP transport writes for every sent payload (zero
// for payloads outside the wire format); PerTickSent and FinishTime are the
// event loop's and stay zero. In a multi-process deployment each process
// sees its own share; totals are the sum over processes (messages, bytes)
// and max over hosts (computation, time).
type Stats = sim.Stats

// mergeStats folds o into s (sums counters, maxes the time cost).
func mergeStats(s *Stats, o Stats) {
	s.MessagesSent += o.MessagesSent
	s.BytesOnWire += o.BytesOnWire
	s.MessagesDelivered += o.MessagesDelivered
	s.MessagesDropped += o.MessagesDropped
	for h, c := range o.PerHostProcessed {
		s.PerHostProcessed[h] += c
	}
	if o.TimeCost > s.TimeCost {
		s.TimeCost = o.TimeCost
	}
}

// Runtime executes sim.Handlers for a set of local hosts over a Transport,
// multiplexing any number of concurrent queries.
type Runtime struct {
	g          *graph.Graph
	values     []int64
	tr         transport.Transport
	hop        time.Duration
	local      []bool
	localHosts []graph.HostID

	// Host-sharded execution: shardOf[h] names the one shard whose worker
	// runs every callback of local host h (-1 for hosts served
	// elsewhere). The partition is fixed at construction, so per-host
	// serialization needs no locking — it is single-ownership.
	shards  []*shard
	shardOf []int32
	maxLive int // admission cap; -1 = unlimited

	// Cross-process quiescence (quiesce.go): procOf is the host→process
	// roster, remoteHosts one host of each distinct peer process (where
	// its control frames go). quiesce is true only when the protocol is
	// enabled and some hosts are remote — an all-local runtime has nobody
	// to hear from.
	quiesce     bool
	procOf      []int32
	remoteHosts []graph.HostID

	// serializes[h]: the transport encodes a frame for h, so its payload's
	// reference ends at the sender once Send returns (Transport.Serializes,
	// read once the local hosts are bound).
	serializes []bool

	mu      sync.Mutex
	started bool
	closed  bool
	factory QueryFactory
	queries map[QueryID]*queryEntry
	// Compacted history: retired queries shrink to ring summaries and fold
	// their counters into retiredTotal (see retired.go).
	retired      retiredRing
	retiredTotal Stats

	slabs chan *slab // retired queries' storage for the next builds (install.go)
	quit  chan struct{}
	wg    sync.WaitGroup

	// Timer heap shared by all hosts and queries; see timer.go.
	tmu       sync.Mutex
	theap     timerHeap
	tfree     []*timerEntry // fired entries awaiting reuse (scheduleEntry)
	timerSeq  uint64
	timerWake chan struct{}

	// Observability (obs.go): nil obs/trace disable instrumentation; met
	// holds pre-registered counters so hot paths never look anything up.
	obs   *obs.Registry
	trace *obs.Tracer
	met   runtimeMetrics
}

// New builds a runtime over cfg. Callers register a QueryFactory before
// Start and issue queries with StartQuery.
func New(cfg Config) (*Runtime, error) {
	n := cfg.Graph.Len()
	values := cfg.Values
	if values == nil {
		values = make([]int64, n)
	}
	if len(values) != n {
		return nil, fmt.Errorf("node: %d values for %d hosts", len(values), n)
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("node: nil transport")
	}
	rt := &Runtime{
		g:            cfg.Graph,
		values:       values,
		tr:           cfg.Transport,
		hop:          cfg.Hop,
		local:        make([]bool, n),
		shardOf:      make([]int32, n),
		queries:      make(map[QueryID]*queryEntry),
		retiredTotal: Stats{PerHostProcessed: make([]int64, n)},
		slabs:        make(chan *slab, slabCap),
		quit:         make(chan struct{}),
		timerWake:    make(chan struct{}, 1),
	}
	if cfg.Local == nil {
		for h := range rt.local {
			rt.local[h] = true
		}
	} else {
		for _, h := range cfg.Local {
			if h < 0 || int(h) >= n {
				return nil, fmt.Errorf("node: local host %d outside graph of %d hosts", h, n)
			}
			rt.local[h] = true
		}
	}
	for h := range rt.shardOf {
		rt.shardOf[h] = -1
	}
	for h := range rt.local {
		if rt.local[h] {
			rt.localHosts = append(rt.localHosts, graph.HostID(h))
		}
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = gort.GOMAXPROCS(0)
	}
	if nshards > len(rt.localHosts) {
		nshards = len(rt.localHosts)
	}
	if nshards < 1 {
		nshards = 1
	}
	// Round-robin over the sorted local host list: partitions stay within
	// one host of each other in size no matter how the shard boundary of
	// the process was drawn.
	for i, h := range rt.localHosts {
		rt.shardOf[h] = int32(i % nshards)
	}
	qcap := cfg.ShardQueue
	if qcap <= 0 {
		qcap = shardQueueCap
	}
	// The overflow starts with room for one item per host of the shard, up
	// to a queue's worth: a burst of due timers parks at most about one per
	// host, so the array is sized here once instead of growing mid-query
	// whenever a burst first runs deeper than every earlier one.
	perShard := min(qcap, (len(rt.localHosts)+nshards-1)/nshards)
	rt.shards = make([]*shard, nshards)
	for s := range rt.shards {
		rt.shards[s] = &shard{ch: make(chan item, qcap), ov: make([]item, 0, perShard)}
	}
	switch {
	case cfg.MaxLiveQueries < 0:
		rt.maxLive = -1
	case cfg.MaxLiveQueries == 0:
		rt.maxLive = DefaultMaxLiveQueries
	default:
		rt.maxLive = cfg.MaxLiveQueries
	}
	if cfg.Quiesce && cfg.Roster != nil && cfg.Hop > 0 && len(rt.localHosts) > 0 {
		var err error
		rt.procOf, rt.remoteHosts, err = buildRoster(cfg.Roster, n, rt.local, rt.localHosts)
		if err != nil {
			return nil, err
		}
		rt.quiesce = len(rt.remoteHosts) > 0
	}
	rt.initObs(cfg.Obs, cfg.Trace)
	return rt, nil
}

// Graph returns the topology.
func (rt *Runtime) Graph() *graph.Graph { return rt.g }

// Hop returns the wall-clock realization of the per-hop delay bound δ.
func (rt *Runtime) Hop() time.Duration { return rt.hop }

// Shards returns the number of shard workers executing host callbacks.
func (rt *Runtime) Shards() int { return len(rt.shards) }

// Values returns the per-host attribute values. The slice is the
// runtime's own backing array: callers must treat it as read-only.
func (rt *Runtime) Values() []int64 { return rt.values }

// Local reports whether h is served by this runtime. An id outside G —
// one may come off the wire — is served nowhere.
func (rt *Runtime) Local(h graph.HostID) bool {
	return h >= 0 && int(h) < len(rt.local) && rt.local[h]
}

// Start binds every local host on the transport, opens it, and launches
// the shard workers plus the timer loop.
func (rt *Runtime) Start() error {
	rt.mu.Lock()
	if rt.started {
		rt.mu.Unlock()
		return fmt.Errorf("node: runtime already started")
	}
	rt.started = true
	rt.mu.Unlock()

	for _, h := range rt.localHosts {
		if err := rt.tr.Bind(h, rt.recvFunc(h)); err != nil {
			return err
		}
	}
	rt.serializes = make([]bool, rt.g.Len())
	for h := range rt.serializes {
		rt.serializes[h] = rt.tr.Serializes(graph.HostID(h))
	}
	if err := rt.tr.Open(); err != nil {
		return err
	}
	// Warm-up dials: transports that can pre-establish peer connections do
	// so now, in the background, so a cold fleet's first query does not pay
	// dial latency (and its retries) inside its own per-hop budget.
	if w, ok := rt.tr.(transport.Warmer); ok {
		w.Warm()
	}
	for _, s := range rt.shards {
		rt.wg.Add(1)
		go rt.shardLoop(s)
	}
	rt.wg.Add(1)
	go rt.timerLoop()
	return nil
}

// recvFunc demultiplexes a transport delivery into h's shard queue: the
// frame's QueryID selects (or lazily instantiates) the query it belongs
// to.
func (rt *Runtime) recvFunc(h graph.HostID) transport.RecvFunc {
	return func(m transport.Message) {
		// Control plane first: quiesce announces carry a QueryID only to
		// name the query they report on; they must never instantiate one
		// (a hostile control frame would otherwise conjure state) and are
		// not demuxed protocol traffic.
		if q, ok := m.Payload.(wire.Quiesce); ok {
			rt.handleQuiesce(m, q)
			return
		}
		rt.met.framesIn.Inc()
		qs, _, err := rt.queryForErr(m.Query, true)
		if err != nil && errors.Is(err, ErrQueryRejected) {
			// Admission control: the rejection was counted (and traced)
			// where it was decided; the frame is simply not demuxed.
			sim.Release(m.Payload)
			return
		}
		if qs == nil {
			// Unknown query and no factory to build it (or the factory
			// failed). Counted but not traced: hostile ids must not churn
			// the tracer's query rings.
			rt.met.dropUnknown.Inc()
			sim.Release(m.Payload)
			return
		}
		if !rt.Local(m.From) {
			// A frame off another process joins the books on arrival; one a
			// local host sent has been on them since its Send.
			qs.inflight.Add(1)
		}
		if qs.retired.Load() {
			// Serialized with compaction: the drop is folded exactly once
			// whether it lands before or after the counters collapse.
			rt.dropRetired(qs)
			sim.Release(m.Payload)
			qs.workDone()
			return
		}
		rt.enqueue(h, item{kind: itemMsg, qs: qs, msg: m})
	}
}

// enqueue places it on h's shard queue, blocking under back-pressure (a
// full shard already means the per-hop budget is blown). For callers that
// must not stall — the timer loop — use dispatch instead. The quit select
// keeps shutdown from hanging on a congested shard.
func (rt *Runtime) enqueue(h graph.HostID, it item) {
	it.h = h
	s := rt.shards[rt.shardOf[h]]
	select {
	case s.ch <- it:
	case <-rt.quit:
	}
}

// dispatch is enqueue for the timer loop: it never blocks the caller. A
// full shard queue parks the item on the shard's overflow list, fed in
// FIFO order by at most one drainer goroutine per congested shard, so one
// slow shard cannot stall timers, departures, or retirements of every other
// shard, and a host's items still arrive in the order they fired.
func (rt *Runtime) dispatch(h graph.HostID, it item) {
	it.h = h
	s := rt.shards[rt.shardOf[h]]
	s.mu.Lock()
	if s.busy {
		s.park(it) // keep FIFO behind parked items
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	select {
	case s.ch <- it:
		return
	case <-rt.quit:
		return
	default:
	}
	s.mu.Lock()
	idle := !s.busy
	s.busy = true
	s.park(it)
	s.mu.Unlock()
	if idle {
		go rt.drainOverflow(s)
	}
}

// park appends it to the overflow; s.mu must be held. When the array is
// full and mostly popped, the backlog slides down to its front instead of
// the array growing, so a shard that never quite drains keeps an array
// proportional to its backlog, not to everything it ever parked.
func (s *shard) park(it item) {
	if len(s.ov) == cap(s.ov) && s.head > len(s.ov)/2 {
		n := copy(s.ov, s.ov[s.head:])
		clear(s.ov[n:])
		s.ov, s.head = s.ov[:n], 0
	}
	s.ov = append(s.ov, it)
}

// pop removes the overflow's oldest item; s.mu must be held. ok is false
// once the overflow is empty, which resets it to the front of its array.
func (s *shard) pop() (it item, ok bool) {
	if s.parked() == 0 {
		s.ov, s.head = s.ov[:0], 0
		return item{}, false
	}
	it = s.ov[s.head]
	s.ov[s.head] = item{}
	s.head++
	return it, true
}

// drainOverflow feeds s's parked items into its queue in order, exiting
// once the overflow empties (or the runtime stops).
func (rt *Runtime) drainOverflow(s *shard) {
	for {
		s.mu.Lock()
		it, ok := s.pop()
		if !ok {
			s.busy = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		select {
		case s.ch <- it:
		case <-rt.quit:
			return
		}
	}
}

// shardLoop is one shard worker: it drains the shard's queue, running
// every callback of every host the shard owns on this single goroutine.
// A host's callbacks all land on one shard (shardOf is fixed), so they
// execute serialized and in enqueue order without per-host goroutines.
//
// The worker owns the one sim.Context every handler callback it runs is
// handed: runItem re-targets it per callback instead of minting a fresh
// one per frame, which is safe because callbacks on one worker never nest
// and handlers must not retain the context past their return.
func (rt *Runtime) shardLoop(s *shard) {
	defer rt.wg.Done()
	ctx := new(sim.Context)
	for {
		select {
		case <-rt.quit:
			return
		case it := <-s.ch:
			rt.runItem(it, ctx)
		}
	}
}

// runItem executes one host callback with ctx, the calling worker's
// reusable context; must only be called from the shard worker owning it.h.
// A Start, frame or timer comes off the query's books only here, after its
// callback has returned.
func (rt *Runtime) runItem(it item, ctx *sim.Context) {
	switch it.kind {
	case itemFunc:
		it.fn() // runs whatever the host's membership: state reads stay safe
	case itemRetire:
		// retire flagged the query before dispatching this, so runCallback
		// drops all that comes later: once every local host is here, the
		// query's storage may serve the next.
		if it.qs.unretired.Add(-1) == 0 {
			rt.recycle(it.qs)
		}
	default:
		rt.runCallback(it, ctx)
		it.qs.workDone()
	}
}

// runCallback runs the handler callback of a Start, frame or timer item —
// or counts the frame dropped, and releases it, when the query or the host
// no longer takes it.
func (rt *Runtime) runCallback(it item, ctx *sim.Context) {
	h, qs := it.h, it.qs
	// Retirement is checked before membership so that EVERY
	// retired-query drop — including one at a departed host — goes
	// through dropRetired's serialization with compact; a lock-free
	// increment here could land after the compaction snapshot and
	// be lost from the folded totals.
	if qs.retired.Load() {
		if it.kind == itemMsg {
			rt.dropRetired(qs)
			sim.Release(it.msg.Payload)
		}
		return
	}
	if it.kind == itemMsg {
		// First traffic arms the query clock even when the local
		// target is dead on this query's timeline: the frame proves
		// the query reached this process, and the clock is what
		// schedules the timeline's own join ticks — a shard whose
		// every local host starts absent must still wake them.
		qs.armClock(rt)
	}
	if qs.hostDead(h) {
		// Dead on this query's membership timeline: its frames are
		// swallowed and its timers never fire, while the host keeps
		// serving every other query of the fleet.
		if it.kind == itemMsg {
			qs.dropped.Add(1)
			rt.met.dropQueryDead.Inc()
			rt.traceDrop(qs, h, it.msg.Chain, dropQueryDead)
			sim.Release(it.msg.Payload)
		}
		return
	}
	hd := qs.handlers[h]
	if hd == nil {
		// The instance has no handler for this host: nobody to hand the
		// frame to.
		if it.kind == itemMsg {
			qs.dropped.Add(1)
			rt.met.dropUnknown.Inc()
			rt.traceDrop(qs, h, it.msg.Chain, dropUnknown)
			sim.Release(it.msg.Payload)
		}
		return
	}
	switch it.kind {
	case itemStart:
		qs.startHost(h, hd, ctx)
	case itemMsg:
		// A lazily instantiated handler's first contact IS its
		// start-of-life: run Start before the first Receive, so
		// protocols that initialize per-host state in Start (not
		// just at h_q) work on worker shards that never see
		// StartQuery. started[h] makes it exactly-once against the
		// explicit itemStart of the issuing process.
		qs.startHost(h, hd, ctx)
		qs.delivered.Add(1)
		rt.met.delivered.Inc()
		atomic.AddInt64(&qs.processed[h], 1)
		qs.observeChain(it.msg.Chain)
		msg := sim.MakeMessage(it.msg.From, it.msg.To, it.msg.Payload, it.msg.Chain)
		ctx.Reset(qs.be, h, it.msg.Chain)
		hd.Receive(ctx, msg)
	case itemTimer:
		ctx.Reset(qs.be, h, it.chain)
		hd.Timer(ctx, it.tag)
	}
}

// Do runs fn on the shard worker owning host h, serialized with every
// callback of h, and returns once fn has completed. It is how callers
// read protocol state (results, partials) of an in-flight query without
// racing the handlers.
func (rt *Runtime) Do(h graph.HostID, fn func()) error {
	if !rt.Local(h) {
		return fmt.Errorf("node: host %d not served by this runtime", h)
	}
	done := make(chan struct{})
	it := item{kind: itemFunc, h: h, fn: func() { fn(); close(done) }}
	s := rt.shards[rt.shardOf[h]]
	select {
	case s.ch <- it:
	case <-rt.quit:
		return fmt.Errorf("node: runtime stopped")
	}
	select {
	case <-done:
		return nil
	case <-rt.quit:
		return fmt.Errorf("node: runtime stopped")
	}
}

// Stop terminates the shard workers and the timer loop, closes the
// transport, and waits for everything to drain. Safe to call more than
// once.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	close(rt.quit)
	rt.mu.Unlock()
	rt.tr.Close()
	rt.wg.Wait()
}

// Stats returns a snapshot of the cost counters summed over all queries,
// live and compacted alike.
func (rt *Runtime) Stats() Stats {
	total := Stats{PerHostProcessed: make([]int64, rt.g.Len())}
	rt.mu.Lock()
	qss := make([]*queryState, 0, len(rt.queries))
	for _, e := range rt.queries {
		if e.qs != nil { // skip entries whose factory is still running
			qss = append(qss, e.qs)
		}
	}
	mergeStats(&total, rt.retiredTotal)
	rt.mu.Unlock()
	for _, qs := range qss {
		mergeStats(&total, qs.snapshot())
	}
	return total
}

// QueryStats returns the cost counters of one query; ok is false if this
// runtime never saw the query. For a query already compacted to the
// retired ring, the summary counters are returned with a nil per-host
// array (use RetiredStats for the compact form including MaxComputation).
func (rt *Runtime) QueryStats(id QueryID) (Stats, bool) {
	qs := rt.lookupQuery(id)
	if qs == nil {
		rt.mu.Lock()
		rs, ok := rt.retired.get(id)
		rt.mu.Unlock()
		return rs.stats(), ok
	}
	return qs.snapshot(), true
}
