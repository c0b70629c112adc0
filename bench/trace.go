package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/transport"
	"validity/internal/wire"
)

// All instrumentation of the traced run lives here and sits on seams the
// bench owns: a transport.Transport decorator handed to node.Config, a
// sim.Handler decorator the bench's query factory puts over an instance's
// handlers, and spans around the bench's own calls into a layer. No
// engine file knows it is being traced. A nil *tracer is the untraced
// run: every method is nil-safe and the decorators are not installed at
// all, so end-to-end numbers never pay for any of this.

type spanKind uint8

const (
	spInstantiate spanKind = iota
	spStartQuery
	spAwait
	spStreamStart
	spSimNewNetwork
	spSimApplyChurn
	spInstall
	spSimRunWildfireCount
	spSimRunSpanningTree
	spSimRunDAG
	spSimRunWildfireMin
	spSimRunWildfireMax
	spOracle
	spSend
	spRecvEnqueue
	spCallback
	spDeliverLag
	spQueueWait
	spConverge
	spOvershoot
	spOpenJitter
	numSpans
)

var spanNames = [numSpans]string{
	spInstantiate:         "node.build_instance",
	spStartQuery:          "node.start_query",
	spAwait:               "node.await_result",
	spStreamStart:         "stream.start",
	spSimNewNetwork:       "sim.new_network",
	spSimApplyChurn:       "churn.apply",
	spInstall:             "protocol.install",
	spSimRunWildfireCount: "sim.run.wildfire_count",
	spSimRunSpanningTree:  "sim.run.spanningtree",
	spSimRunDAG:           "sim.run.dag",
	spSimRunWildfireMin:   "sim.run.wildfire_min",
	spSimRunWildfireMax:   "sim.run.wildfire_max",
	spOracle:              "oracle.compute",
	spSend:                "transport.send",
	spRecvEnqueue:         "node.recv_enqueue",
	spCallback:            "protocol.callback",
	spDeliverLag:          "transport.deliver_lag",
	spQueueWait:           "node.queue_wait",
	spConverge:            "node.converge",
	spOvershoot:           "node.await_overshoot",
	spOpenJitter:          "stream.open_jitter",
}

// dumpOps is how many ops of a workload keep full span records; the rest
// only feed the aggregates. dumpCap bounds the records kept, because one
// 2K-host op alone is ~300K send and callback spans.
const (
	dumpOps = 3
	dumpCap = 60000
)

// spanRecord is one span of the dump: ns offsets from the tracer's
// start, the span that caused it (0 = none) and the op it belongs to.
type spanRecord struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent,omitempty"`
	Op     int    `json:"op"`
}

// opTrace is the per-op state shared by every decorator that sees the
// op's traffic (all three runtimes of the TCP fleet included).
type opTrace struct {
	index  int // 1-based position in the timed phase
	rootID int64
	issued atomic.Int64 // ns since tracer start

	mu       sync.Mutex
	handlers []*tracedHandler // every host's decorator, on every runtime
}

// lastCallback is when the op's last handler callback anywhere ended.
func (o *opTrace) lastCallback() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var last int64
	for _, h := range o.handlers {
		if e := h.lastEnd.Load(); e > last {
			last = e
		}
	}
	return last
}

func (o *opTrace) dumped() bool { return o != nil && o.index <= dumpOps }

// callback is the handler callback now running on a host; Send spans
// issued inside it add to childNs so the callback's self time can be
// taken. Only the goroutine running the callback touches the fields.
type callback struct {
	id      int64
	op      *opTrace
	childNs int64
}

type tracer struct {
	t0  time.Time
	hop time.Duration
	on  atomic.Bool
	// matchQueues enables the recv→handler queue-wait matcher. It is exact
	// only when every delivered frame reaches a handler, i.e. without
	// per-query deaths, so churn workloads leave it off.
	matchQueues bool

	aggs   [numSpans]stripedAgg
	frames atomic.Int64 // delivered frames matched to their send
	late   atomic.Int64 // … whose send→deliver exceeded δ
	nextID atomic.Int64

	cur []atomic.Pointer[callback] // by host

	mu  sync.RWMutex
	ops map[int64]*opTrace // by query id

	lag  fifoMatcher // transport Send → RecvFunc
	wait fifoMatcher // RecvFunc → handler Receive

	dumpMu   sync.Mutex
	dump     []spanRecord
	dumpFull atomic.Bool
}

func newTracer(hosts int, hop time.Duration, matchQueues bool) *tracer {
	return &tracer{
		t0:          time.Now(),
		hop:         hop,
		matchQueues: matchQueues,
		cur:         make([]atomic.Pointer[callback], hosts),
		ops:         make(map[int64]*opTrace),
		lag:         newFifoMatcher(hosts),
		wait:        newFifoMatcher(hosts),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// enable switches the transport decorators on for the timed phase and off
// after it, so warm-up and shutdown traffic stays out of the aggregates.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin stamps the start of a span around one of the bench's own calls;
// done closes it. Both are no-ops on the nil tracer.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

func (t *tracer) done(k spanKind, start int64, op *opTrace) {
	if t == nil {
		return
	}
	end := t.now()
	t.aggs[k].observe(0, end-start)
	if op.dumped() {
		t.record(spanRecord{ID: t.nextID.Add(1), Name: spanNames[k], Start: start, End: end, Parent: op.rootID, Op: op.index})
	}
}

func (t *tracer) record(r spanRecord) {
	if t.dumpFull.Load() {
		return
	}
	t.dumpMu.Lock()
	if len(t.dump) < dumpCap {
		t.dump = append(t.dump, r)
	} else {
		t.dumpFull.Store(true)
	}
	t.dumpMu.Unlock()
}

// newOp registers op index of the timed phase under its query id, so the
// factory on any runtime can attach that op's decorators.
func (t *tracer) newOp(query int64, index int) *opTrace {
	if t == nil {
		return nil
	}
	o := &opTrace{index: index, rootID: t.nextID.Add(1)}
	t.mu.Lock()
	t.ops[query] = o
	t.mu.Unlock()
	return o
}

func (t *tracer) op(query int64) *opTrace {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	o := t.ops[query]
	t.mu.RUnlock()
	return o
}

// issue stamps the op's issue instant once; the first of the harness
// (one-shot) or the factory (stream windows, opened by the engine's timer
// heap) to see the op wins.
func (t *tracer) issue(o *opTrace) {
	if o != nil {
		o.issued.CompareAndSwap(0, t.now())
	}
}

// finish closes the op: converge is issue → last handler callback
// anywhere in the fleet, overshoot is last callback → answer in hand.
func (t *tracer) finish(o *opTrace) {
	if o == nil {
		return
	}
	end := t.now()
	issued, last := o.issued.Load(), o.lastCallback()
	if last >= issued && last > 0 {
		t.aggs[spConverge].observe(0, last-issued)
		t.aggs[spOvershoot].observe(0, end-last)
	}
	if o.dumped() {
		t.record(spanRecord{ID: o.rootID, Name: "op", Start: issued, End: end, Op: o.index})
	}
}

// writeDump writes the kept span records of one workload to dir.
func (t *tracer) writeDump(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.dumpMu.Lock()
	doc := struct {
		Workload  string       `json:"workload"`
		Ops       int          `json:"ops_recorded"`
		Truncated bool         `json:"truncated"`
		Spans     []spanRecord `json:"spans"`
	}{workload, dumpOps, t.dumpFull.Load(), t.dump}
	blob, err := json.Marshal(doc)
	t.dumpMu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	return path, os.WriteFile(path, blob, 0o644)
}

// --- transport decorator ----------------------------------------------------

// tracedTransport spans Send, wraps every RecvFunc given to Bind, and
// matches each delivery to its send. The runtimes of a TCP fleet each get
// their own decorator over their own transport but share one tracer, so a
// frame sent on one runtime is matched when another delivers it.
type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (d *tracedTransport) Bind(h graph.HostID, recv transport.RecvFunc) error {
	t := d.t
	return d.Transport.Bind(h, func(m transport.Message) {
		if !t.on.Load() {
			recv(m)
			return
		}
		in := t.now()
		if sent, ok := t.lag.pop(m.From, m.To); ok {
			lag := in - sent
			t.aggs[spDeliverLag].observe(int(m.To), lag)
			t.frames.Add(1)
			if lag > int64(t.hop) {
				t.late.Add(1)
			}
		}
		// Quiescence announces are diverted before the demux and never
		// reach a handler, so they must not enter the queue-wait matcher.
		if _, control := m.Payload.(wire.Quiesce); t.matchQueues && !control {
			t.wait.push(m.From, m.To, in)
		}
		recv(m)
		t.aggs[spRecvEnqueue].observe(int(m.To), t.now()-in)
	})
}

func (d *tracedTransport) Send(m transport.Message) error {
	t := d.t
	if !t.on.Load() {
		return d.Transport.Send(m)
	}
	start := t.now()
	t.lag.push(m.From, m.To, start)
	err := d.Transport.Send(m)
	end := t.now()
	if err != nil {
		t.lag.unpush(m.From, m.To)
	}
	t.aggs[spSend].observe(int(m.From), end-start)
	if _, control := m.Payload.(wire.Quiesce); control {
		return err // sent off the timer loop, not from inside a callback
	}
	if cb := t.cur[m.From].Load(); cb != nil {
		cb.childNs += end - start
		if cb.id != 0 {
			t.record(spanRecord{ID: t.nextID.Add(1), Name: spanNames[spSend], Start: start, End: end, Parent: cb.id, Op: cb.op.index})
		}
	}
	return err
}

// Warm forwards transport.Warmer, which the runtime probes for by type
// assertion and would otherwise lose behind the decorator.
func (d *tracedTransport) Warm() {
	if w, ok := d.Transport.(transport.Warmer); ok {
		w.Warm()
	}
}

// --- handler decorator ------------------------------------------------------

// tracedHandler spans Start/Receive/Timer of one host of one query.
// Callbacks of a host are serialized by the engine (and by the event
// loop), so the embedded callback record is reused without locking.
type tracedHandler struct {
	inner   sim.Handler
	t       *tracer
	op      *opTrace
	h       graph.HostID
	cb      callback
	lastEnd atomic.Int64 // read by opTrace.lastCallback from the harness
}

func (w *tracedHandler) begin() int64 {
	w.cb = callback{op: w.op}
	if w.op.dumped() {
		w.cb.id = w.t.nextID.Add(1) // only dumped spans need an identity
	}
	w.t.cur[w.h].Store(&w.cb)
	return w.t.now()
}

func (w *tracedHandler) end(start int64, name string) {
	t := w.t
	end := t.now()
	t.cur[w.h].Store(nil)
	t.aggs[spCallback].observe(int(w.h), end-start-w.cb.childNs)
	w.lastEnd.Store(end)
	if w.cb.id != 0 {
		t.record(spanRecord{ID: w.cb.id, Name: name, Start: start, End: end, Parent: w.op.rootID, Op: w.op.index})
	}
}

func (w *tracedHandler) Start(ctx *sim.Context) {
	s := w.begin()
	w.inner.Start(ctx)
	w.end(s, "protocol.start")
}

func (w *tracedHandler) Receive(ctx *sim.Context, msg sim.Message) {
	s := w.begin()
	if w.t.matchQueues {
		if at, ok := w.t.wait.pop(msg.From, w.h); ok {
			w.t.aggs[spQueueWait].observe(int(w.h), s-at)
		}
	}
	w.inner.Receive(ctx, msg)
	w.end(s, "protocol.receive")
}

func (w *tracedHandler) Timer(ctx *sim.Context, tag int) {
	s := w.begin()
	w.inner.Timer(ctx, tag)
	w.end(s, "protocol.timer")
}

// wrapHandlers puts the decorator over every non-nil handler of a traced
// op and returns how many it wrapped.
func (t *tracer) wrapHandlers(op *opTrace, hs []sim.Handler) int {
	var wrapped []*tracedHandler
	for h, hd := range hs {
		if hd != nil {
			w := &tracedHandler{inner: hd, t: t, op: op, h: graph.HostID(h)}
			hs[h] = w
			wrapped = append(wrapped, w)
		}
	}
	op.mu.Lock()
	op.handlers = append(op.handlers, wrapped...)
	op.mu.Unlock()
	return len(wrapped)
}

// --- FIFO matcher -----------------------------------------------------------

// fifoMatcher pairs the i-th push on a (from, to) pair with the i-th pop.
// Both transports deliver one sender's frames in send order and a host's
// shard runs its callbacks in enqueue order, so position in the per-pair
// FIFO identifies the frame without tagging it. Queues hang off the
// destination host, each destination under its own lock: the only
// goroutines that meet there are the ones sending to and delivering at
// that host.
type fifoMatcher struct {
	to []struct {
		mu   sync.Mutex
		from map[graph.HostID]*stampFifo
	}
}

type stampFifo struct {
	stamps []int64
	head   int
}

func newFifoMatcher(hosts int) fifoMatcher {
	return fifoMatcher{to: make([]struct {
		mu   sync.Mutex
		from map[graph.HostID]*stampFifo
	}, hosts)}
}

func (m *fifoMatcher) push(from, to graph.HostID, stamp int64) {
	d := &m.to[to]
	d.mu.Lock()
	f := d.from[from]
	if f == nil {
		if d.from == nil {
			d.from = make(map[graph.HostID]*stampFifo)
		}
		f = &stampFifo{}
		d.from[from] = f
	}
	f.stamps = append(f.stamps, stamp)
	d.mu.Unlock()
}

func (m *fifoMatcher) pop(from, to graph.HostID) (int64, bool) {
	d := &m.to[to]
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.from[from]
	if f == nil || f.head == len(f.stamps) {
		return 0, false
	}
	v := f.stamps[f.head]
	f.head++
	if f.head == len(f.stamps) {
		f.stamps, f.head = f.stamps[:0], 0
	}
	return v, true
}

// unpush takes back the newest push of a pair (a send the transport
// reported lost will never be delivered).
func (m *fifoMatcher) unpush(from, to graph.HostID) {
	d := &m.to[to]
	d.mu.Lock()
	if f := d.from[from]; f != nil && len(f.stamps) > f.head {
		f.stamps = f.stamps[:len(f.stamps)-1]
	}
	d.mu.Unlock()
}
