// Package transport abstracts the message-passing substrate the node
// runtime (internal/node) executes the paper's protocols on. Where
// internal/sim realizes the §3.1 system model with a deterministic event
// loop, a Transport realizes it with real concurrency: hosts are addressed
// endpoints and sends are asynchronous. A Transport is a pipe: it knows
// which hosts are bound where, not which are members of a query — the
// fail-stop departures of §3.2 live on each query's membership timeline
// (node.QueryInstance.Churn), which the runtime enforces on both ends of
// every frame.
//
// Two implementations are provided:
//
//   - Channel: all hosts live in one process; delivery goes through
//     goroutines with an optional per-hop delay that emulates the
//     universal delay bound δ in wall-clock time.
//   - TCP: hosts are sharded across OS processes; frames travel as
//     length-prefixed internal/wire binary frames over loopback or a real
//     network — batched per peer by a write-coalescing goroutine — so N
//     processes can jointly answer one WILDFIRE query (cmd/validityd).
//
// The Transport does not know the topology: neighbor-only communication
// (§3.1 "messages travel only along edges of G") is enforced one layer up,
// by sim.Context, before a message ever reaches Send.
//
// Control frames ride the same path as protocol traffic: the node
// runtime's cross-process quiescence announces (wire.Quiesce, tag 239)
// are ordinary Messages addressed to the query's issuing host, so both
// transports route them with no special casing — the Channel passes the
// payload as a Go value, the TCP transport encodes it through the tag's
// registered codec like any protocol frame, and the receiving runtime
// diverts them before the per-query demux. The one property the node
// layer relies on is per-sender ordering: both transports deliver one
// peer's frames in send order (the Channel through its FIFO scheduler,
// TCP through the per-peer stream), which is what lets a same-epoch
// quiet claim supersede the busy claim before it.
package transport

import "validity/internal/graph"

// QueryID identifies one in-flight query across the whole fleet. The node
// runtime multiplexes many concurrent queries over one transport: every
// frame is stamped with the query it belongs to, and the receiving process
// demultiplexes it to that query's protocol instance. Queries use IDs ≥ 1;
// the runtime drops anything lower as an unknown query.
type QueryID int64

// Message is one protocol payload in flight between two hosts. Query
// names the query instance the payload belongs to. Chain is the causal
// depth of the message (1 + the depth of the message whose processing
// triggered the send); carrying both in every frame keeps the per-query
// §6.3 cost accounting exact across process boundaries.
type Message struct {
	From    graph.HostID
	To      graph.HostID
	Query   QueryID
	Chain   int
	Payload any
}

// RecvFunc is the delivery callback a bound host registers. It is invoked
// from transport-owned goroutines, never on the goroutine of the Send that
// carried the frame, so it may block until a receiver drains without
// blocking that sender; implementations must be safe for concurrent calls
// and should hand the message off quickly (the node runtime enqueues into
// the bounded queue of the host's shard).
type RecvFunc func(Message)

// Transport moves Messages between hosts, possibly across processes.
//
// Lifecycle: Bind every locally-served host, then Open once to start
// accepting traffic, then Send freely; Close tears everything down. Until
// Close, every frame accepted for a host bound in this process reaches its
// RecvFunc — the node runtime's counted read (sent = delivered + dropped)
// rests on that.
type Transport interface {
	// Bind registers h as locally served and routes its inbound messages
	// to recv. Binding the same host twice, or a host the transport does
	// not serve, is an error.
	Bind(h graph.HostID, recv RecvFunc) error
	// Open starts accepting traffic (listeners, background loops). Bind
	// must not be called after Open.
	Open() error
	// Send delivers msg to its destination asynchronously. A returned
	// error means the message is known lost (e.g. unreachable peer).
	//
	// A payload may carry one reference to storage its sender recycles (a
	// WILDFIRE frame's pooled snapshot). Send releases none. An in-process
	// delivery hands the payload itself, and with it the reference, to the
	// receiver, which releases it. A frame for a destination Serializes
	// names is encoded inside Send, which keeps nothing of the payload, and
	// a Send that returns an error delivers nothing: in both cases the
	// reference is still the caller's to end once Send returns (the node
	// runtime does). A frame that reaches no bound host is dropped with
	// its reference, which leaves the storage to the garbage collector.
	Send(msg Message) error
	// Serializes reports whether Send encodes a frame for h into bytes for
	// another process instead of handing the payload over in process. The
	// answer is fixed once every local host is bound.
	Serializes(h graph.HostID) bool
	// Close releases all resources and stops delivery goroutines.
	Close() error
}

// Warmer is implemented by transports that can pre-establish their peer
// links. Warm starts dialing every remote peer in the background and
// returns immediately; it is an optimization only — lazy dialing on first
// send remains the correctness path. The node runtime calls Warm right
// after Open, so a cold fleet's first query does not pay connection setup
// (and its retries) inside its own per-hop budget.
type Warmer interface {
	Warm()
}
