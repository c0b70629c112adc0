// Package sim implements the discrete-event simulator of a dynamic network
// that every protocol in this repository runs on. It models the paper's
// "relaxed asynchronous" system (§3.1): hosts connected by symmetric edges,
// a known per-hop delay bound δ (one virtual tick), reliable in-order
// delivery to alive neighbors, and hosts that fail (leave) at scheduled
// times (§3.2). It also models the wireless broadcast medium of sensor
// networks, under which one transmission reaches every alive neighbor at
// the cost of a single message (§5.3).
//
// The simulator is deterministic: all randomness is the per-host coin
// streams derived from Config.Seed (NewCoins), and events at equal times are
// processed in a fixed order (by sequence number). Determinism is what makes
// the paper's figures reproducible byte for byte.
//
// Handlers act through a Context, and a Context is one call deep over a
// Backend. Network is the deterministic Backend; the host-sharded runtime
// that executes the same Handlers on real concurrent peers and real
// transports (internal/node) is the other, and both derive a host's coins
// the same way, so one seed gives one estimate on either.
//
// Cost accounting follows §6.3 exactly:
//
//   - Communication cost: number of messages sent between host pairs
//     (under the wireless medium, one local broadcast counts as one).
//   - Computation cost: messages processed per host; the protocol's cost is
//     the maximum over hosts.
//   - Time cost: the length of the longest causal chain of messages,
//     tracked by carrying a chain depth in every message.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"validity/internal/graph"
)

// Time is virtual time measured in ticks. One tick is the universal
// per-hop delay bound δ of the paper's model.
type Time int64

// Medium selects how a send-to-all-neighbors is accounted.
type Medium int

const (
	// MediumPointToPoint charges one message per (sender, receiver) pair,
	// as on a wired P2P overlay.
	MediumPointToPoint Medium = iota
	// MediumWireless charges one message per local broadcast regardless of
	// the number of neighbors, as on a sensor radio.
	MediumWireless
)

func (m Medium) String() string {
	switch m {
	case MediumPointToPoint:
		return "point-to-point"
	case MediumWireless:
		return "wireless"
	default:
		return fmt.Sprintf("Medium(%d)", int(m))
	}
}

// Message is a payload in flight between two hosts. Payload semantics are
// protocol-defined.
type Message struct {
	From    graph.HostID
	To      graph.HostID
	Payload any
	// chain is the causal depth of this message: 1 + the depth of the
	// message whose processing triggered the send (0 for spontaneous
	// sends). The maximum over all delivered messages is the time cost.
	chain int
}

// Chain returns the causal depth of the message (see Stats.TimeCost).
func (m *Message) Chain() int { return m.chain }

// MakeMessage builds a Message with an explicit causal depth. The chain
// field is private to keep the event loop's accounting honest; runtimes
// that deliver transport frames (internal/node) reconstruct messages here.
func MakeMessage(from, to graph.HostID, payload any, chain int) Message {
	return Message{From: from, To: to, Payload: payload, chain: chain}
}

// Release ends the one reference a payload may hold on storage its sender
// recycles (a WILDFIRE frame's pooled snapshot), for a frame a backend
// finishes without a Receive: one dropped at a dead host or a host with no
// handler, or one the live runtime drops or serializes for another
// process. A Receive ends its own frame's reference. A payload that holds
// none is left alone.
func Release(payload any) {
	if r, ok := payload.(interface{ Release() }); ok {
		r.Release()
	}
}

// Handler is the per-host protocol logic. Implementations must be pure
// state machines: all communication goes through the Context.
type Handler interface {
	// Start is invoked once per host when the host becomes part of the
	// simulation (at time 0 for initial hosts, at join time for joiners).
	Start(ctx *Context)
	// Receive is invoked when a message is delivered to this host.
	Receive(ctx *Context, msg Message)
	// Timer is invoked when a timer set via Context.SetTimer fires.
	Timer(ctx *Context, tag int)
}

// event kinds, ordered for determinism at equal timestamps.
const (
	evFail = iota
	evJoin
	evDeliver
	evTimer
)

type event struct {
	t     Time
	kind  int
	seq   uint64 // FIFO tiebreak
	host  graph.HostID
	msg   Message
	tag   int
	chain int // causal depth carried into timer callbacks
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q eventQueue) Peek() *event  { return q[0] }

// Stats aggregates the §6.3 cost measures for one run.
type Stats struct {
	// MessagesSent is the total communication cost.
	MessagesSent int64
	// MessagesDelivered counts deliveries that reached an alive host.
	MessagesDelivered int64
	// MessagesDropped counts messages whose destination failed in flight.
	MessagesDropped int64
	// PerHostProcessed[h] is the computation cost of host h.
	PerHostProcessed []int64
	// PerTickSent[t] is the number of messages sent at tick t (Fig. 13b).
	PerTickSent []int64
	// TimeCost is the longest causal chain of messages (§6.3).
	TimeCost int
	// FinishTime is the virtual time at which the run stopped.
	FinishTime Time
	// BytesOnWire is the internal/wire frame size of every sent payload,
	// counted by backends that put frames on a wire (internal/node); the
	// event loop serializes nothing and leaves it zero.
	BytesOnWire int64
}

// MaxComputation returns the maximum per-host computation cost.
func (s *Stats) MaxComputation() int64 {
	var max int64
	for _, c := range s.PerHostProcessed {
		if c > max {
			max = c
		}
	}
	return max
}

// Network is one simulation instance: a topology, per-host handler state,
// scheduled churn, and the event loop. It is the deterministic Backend.
type Network struct {
	g        *graph.Graph
	medium   Medium
	seed     int64
	coins    []*rand.Rand // coins[h] is host h's stream, made at first use
	ctx      Context      // the one Context, re-targeted per callback
	handlers []Handler
	alive    []bool
	joined   []bool // false until join time (joiners); initial hosts true
	queue    eventQueue
	seq      uint64
	now      Time
	stats    Stats
	values   []int64 // attribute values (query-dependent, §3.1)
	// OnDeliver, if set, observes every delivered message (for tracing).
	OnDeliver func(t Time, msg Message)
}

// Config configures a Network.
type Config struct {
	Graph  *graph.Graph
	Medium Medium
	// Seed is what every host's coin stream (Context.Rand) derives from,
	// together with the host's id.
	Seed int64
	// Values are per-host attribute values; len must equal Graph.Len().
	// If nil, all values are zero.
	Values []int64
}

// NewNetwork builds a simulation over cfg.Graph with every host alive.
func NewNetwork(cfg Config) *Network {
	n := cfg.Graph.Len()
	values := cfg.Values
	if values == nil {
		values = make([]int64, n)
	}
	if len(values) != n {
		panic(fmt.Sprintf("sim: %d values for %d hosts", len(values), n))
	}
	nw := &Network{
		g:        cfg.Graph,
		medium:   cfg.Medium,
		seed:     cfg.Seed,
		coins:    make([]*rand.Rand, n),
		handlers: make([]Handler, n),
		alive:    make([]bool, n),
		joined:   make([]bool, n),
		values:   values,
	}
	for i := range nw.alive {
		nw.alive[i] = true
		nw.joined[i] = true
	}
	nw.stats.PerHostProcessed = make([]int64, n)
	return nw
}

// Graph returns the underlying topology.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Now returns the current virtual time.
func (nw *Network) Now() Time { return nw.now }

// Stats returns the accumulated cost statistics.
func (nw *Network) Stats() *Stats { return &nw.stats }

// Alive reports whether host h is currently alive.
func (nw *Network) Alive(h graph.HostID) bool { return nw.alive[h] }

// Value returns the attribute value of host h.
func (nw *Network) Value(h graph.HostID) int64 { return nw.values[h] }

// SetHandler installs the protocol state machine for host h. All handlers
// must be installed before Run.
func (nw *Network) SetHandler(h graph.HostID, hd Handler) { nw.handlers[h] = hd }

// Handler returns the handler installed at h (for post-run inspection).
func (nw *Network) Handler(h graph.HostID) Handler { return nw.handlers[h] }

// FailAt schedules host h to leave the network at time t. A failed host
// stops participating: in-flight messages to it are dropped at delivery
// time, and its timers never fire (§3.2).
func (nw *Network) FailAt(h graph.HostID, t Time) {
	nw.push(&event{t: t, kind: evFail, host: h})
}

// JoinAt schedules host h to join the network at time t. For a host
// constructed dead via SetInitiallyDead (a late joiner) its Start runs
// then; for a host that failed earlier (a rebirth) it resumes with its
// existing handler state. Joining while already present is a no-op.
func (nw *Network) JoinAt(h graph.HostID, t Time) {
	nw.push(&event{t: t, kind: evJoin, host: h})
}

// SetInitiallyDead marks h as not present at time 0 (to be joined later).
func (nw *Network) SetInitiallyDead(h graph.HostID) {
	nw.alive[h] = false
	nw.joined[h] = false
}

func (nw *Network) push(e *event) {
	e.seq = nw.seq
	nw.seq++
	heap.Push(&nw.queue, e)
}

// Run executes the event loop until the queue drains or `until` is
// reached, whichever comes first, and returns the final statistics. Start
// is invoked on every initially-alive host at time 0 before any event.
func (nw *Network) Run(until Time) *Stats {
	for h := 0; h < nw.g.Len(); h++ {
		if nw.alive[h] && nw.handlers[h] != nil {
			nw.handlers[h].Start(nw.at(graph.HostID(h), 0))
		}
	}
	for nw.queue.Len() > 0 {
		e := nw.queue.Peek()
		if e.t > until {
			break
		}
		heap.Pop(&nw.queue)
		nw.now = e.t
		nw.dispatch(e)
	}
	if nw.now < until {
		nw.now = until
	}
	nw.stats.FinishTime = nw.now
	return &nw.stats
}

func (nw *Network) dispatch(e *event) {
	switch e.kind {
	case evFail:
		nw.alive[e.host] = false
	case evJoin:
		if nw.alive[e.host] {
			return // join while present: no-op
		}
		nw.alive[e.host] = true
		if !nw.joined[e.host] {
			// First arrival of a late joiner: its Start runs now. A host
			// rejoining after a failure (a membership-timeline rebirth)
			// resumes with its existing handler state; Start is once per
			// host lifetime, exactly as under the live engine.
			nw.joined[e.host] = true
			if hd := nw.handlers[e.host]; hd != nil {
				hd.Start(nw.at(e.host, 0))
			}
		}
	case evDeliver:
		if !nw.alive[e.msg.To] {
			nw.stats.MessagesDropped++
			Release(e.msg.Payload)
			return
		}
		nw.stats.MessagesDelivered++
		nw.stats.PerHostProcessed[e.msg.To]++
		if e.msg.chain > nw.stats.TimeCost {
			nw.stats.TimeCost = e.msg.chain
		}
		if nw.OnDeliver != nil {
			nw.OnDeliver(nw.now, e.msg)
		}
		if hd := nw.handlers[e.msg.To]; hd != nil {
			hd.Receive(nw.at(e.msg.To, e.msg.chain), e.msg)
		} else {
			Release(e.msg.Payload)
		}
	case evTimer:
		if !nw.alive[e.host] {
			return
		}
		if hd := nw.handlers[e.host]; hd != nil {
			hd.Timer(nw.at(e.host, e.chain), e.tag)
		}
	}
}

// at re-targets the network's one Context for the next callback. Callbacks
// never nest in the event loop, so one is enough.
func (nw *Network) at(h graph.HostID, chain int) *Context {
	nw.ctx.Reset(nw, h, chain)
	return &nw.ctx
}

// recordSent updates the per-tick trace for messages sent now.
func (nw *Network) recordSent(count int64) {
	nw.stats.MessagesSent += count
	t := int(nw.now)
	for len(nw.stats.PerTickSent) <= t {
		nw.stats.PerTickSent = append(nw.stats.PerTickSent, 0)
	}
	nw.stats.PerTickSent[t] += count
}

// Medium implements Backend.
func (nw *Network) Medium() Medium { return nw.medium }

// Rand implements Backend: host h's own coin stream, derived from
// (Config.Seed, h) at first use, so what a host draws does not depend on
// who drew before it.
func (nw *Network) Rand(h graph.HostID) *rand.Rand {
	if nw.coins[h] == nil {
		nw.coins[h] = NewCoins(nw.seed, h).Rand
	}
	return nw.coins[h]
}

// Send implements Backend: the message arrives after δ = 1 tick if the
// destination is then alive.
func (nw *Network) Send(from, to graph.HostID, payload any, chain int) {
	nw.recordSent(1)
	nw.deliverNext(from, to, payload, chain)
}

// SendAll implements Backend. Under MediumPointToPoint it costs one message
// per neighbor reached; under MediumWireless one message total (§5.3).
func (nw *Network) SendAll(from, skip graph.HostID, payload any, chain int) {
	count := int64(0)
	for _, to := range nw.g.Neighbors(from) {
		if to == skip {
			continue
		}
		count++
		nw.deliverNext(from, to, payload, chain)
	}
	if count == 0 {
		return
	}
	if nw.medium == MediumWireless {
		count = 1
	}
	nw.recordSent(count)
}

func (nw *Network) deliverNext(from, to graph.HostID, payload any, chain int) {
	nw.push(&event{t: nw.now + 1, kind: evDeliver, msg: Message{From: from, To: to, Payload: payload, chain: chain}})
}

// SetTimer implements Backend. Timers on failed hosts never fire.
func (nw *Network) SetTimer(h graph.HostID, at Time, tag, chain int) {
	nw.push(&event{t: at, kind: evTimer, host: h, tag: tag, chain: chain})
}

// Backend is the execution substrate behind a Context: something that can
// deliver messages, schedule timers, toss a host's coins and answer
// environment queries. Network implements it on virtual ticks;
// internal/node implements it per query for real concurrent peers over
// pluggable transports (in-process channels, TCP).
//
// Time is measured in ticks of δ — a Backend maps ticks to wall clock
// however it realizes the per-hop bound.
type Backend interface {
	// Now returns the current virtual time in δ ticks.
	Now() Time
	// Value returns host h's attribute value.
	Value(h graph.HostID) int64
	// Graph returns the topology.
	Graph() *graph.Graph
	// Medium reports how a SendAll is charged.
	Medium() Medium
	// Rand returns host h's coin stream. Every backend derives it from its
	// seed and h alone (NewCoins), and it is only ever drawn from inside
	// h's own callbacks.
	Rand(h graph.HostID) *rand.Rand
	// Send transmits payload from one host to another with the given
	// causal depth; delivery happens only if the destination is alive at
	// arrival (§3.2).
	Send(from, to graph.HostID, payload any, chain int)
	// SendAll transmits payload from one host to each of its neighbors but
	// skip (graph.None skips nobody), charged according to Medium.
	SendAll(from, skip graph.HostID, payload any, chain int)
	// SetTimer schedules Timer(tag) on h at absolute tick `at`, carrying
	// the causal depth of the scheduling callback.
	SetTimer(h graph.HostID, at Time, tag, chain int)
}

// Context is the capability a handler uses to act on the network: a host,
// the causal depth of the callback in progress, and the Backend both act
// on.
//
// A Context is valid only for the duration of the callback it was passed
// to, and that contract is load-bearing: a backend owns one Context per
// executing goroutine (the event loop's one, a runtime's one per shard
// worker) and re-targets it with Reset for every callback it runs, so a
// handler that retained the pointer would later act as whichever host runs
// next. Handlers must copy out what they need (Self, Now, ...) and never
// store the Context itself.
type Context struct {
	be    Backend
	host  graph.HostID
	chain int
}

// Reset re-targets c at host h executing on b with the given causal chain
// depth — the state a fresh callback starts from. Backends call it on
// their one Context before every handler callback.
func (c *Context) Reset(b Backend, h graph.HostID, chain int) {
	*c = Context{be: b, host: h, chain: chain}
}

// Self returns the host this context belongs to.
func (c *Context) Self() graph.HostID { return c.host }

// Now returns the current virtual time (elapsed hop units on a live
// backend).
func (c *Context) Now() Time { return c.be.Now() }

// Value returns this host's attribute value, generated on receipt of the
// query in the ad-hoc model (§3.1); here it is preassigned per run.
func (c *Context) Value() int64 { return c.be.Value(c.host) }

// Neighbors returns this host's neighbor list (alive or not: a host cannot
// observe neighbor failures, only their silence).
func (c *Context) Neighbors() []graph.HostID { return c.be.Graph().Neighbors(c.host) }

// Degree returns the number of neighbors.
func (c *Context) Degree() int { return c.be.Graph().Degree(c.host) }

// Rand returns this host's own coin stream, deterministic per (seed, host)
// on every backend (§5.2: each host tosses its own coins).
func (c *Context) Rand() *rand.Rand { return c.be.Rand(c.host) }

// Send transmits payload to a single neighbor; it arrives within δ if the
// destination is then alive. Sending to a non-neighbor panics: messages can
// only travel along edges of G (§3.1).
func (c *Context) Send(to graph.HostID, payload any) {
	if !c.be.Graph().HasEdge(c.host, to) {
		panic(fmt.Sprintf("sim: host %d sending to non-neighbor %d", c.host, to))
	}
	c.be.Send(c.host, to, payload, c.chain+1)
}

// SendAll transmits payload to every neighbor. Under MediumPointToPoint it
// costs one message per neighbor; under MediumWireless it costs one
// message total (§5.3). Delivery per neighbor still depends on that
// neighbor being alive at arrival time.
func (c *Context) SendAll(payload any) {
	c.be.SendAll(c.host, graph.None, payload, c.chain+1)
}

// SendAllExcept is SendAll skipping one neighbor (e.g. the host the
// triggering message came from). Under the wireless medium it still costs
// one message.
func (c *Context) SendAllExcept(skip graph.HostID, payload any) {
	c.be.SendAll(c.host, skip, payload, c.chain+1)
}

// SetTimer schedules Timer(tag) on this host at absolute time t. Timers on
// failed hosts never fire. On a live backend the timer is realized with a
// wall-clock timer of (t − now) hop units.
//
// A timer set while processing a message continues that message's causal
// chain, so batched sends triggered by timers keep honest time-cost
// accounting.
func (c *Context) SetTimer(t Time, tag int) { c.be.SetTimer(c.host, t, tag, c.chain) }

// Medium reports the transmission medium (always point-to-point on live
// backends).
func (c *Context) Medium() Medium { return c.be.Medium() }
