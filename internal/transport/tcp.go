package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/wire"
)

// maxFrame bounds one wire frame. Protocol messages are a few hundred
// bytes at most (an FM sketch travels as its occupied bit window, at most
// vectors×bits/8 bytes plus a small header); anything near this limit is a
// corrupt or hostile stream.
const maxFrame = 1 << 24

// maxBatch caps the frames one writer packs into a single conn.Write:
// enough to amortize the syscall across a busy connection's backlog, small
// enough that one flush never buffers unbounded memory.
const maxBatch = 128

// TCP is the cross-process Transport: hosts are assigned to addresses, and
// every process serves the hosts whose address it listens on. Frames are
// internal/wire version-4 binary frames — a 4-byte big-endian length
// prefix followed by a fixed 24-byte header (magic, version, payload tag,
// from, to, query, chain) and the payload body of the tag's registered
// codec. The QueryID in every header lets one long-running fleet carry
// many concurrent queries over the same connections. Encoding appends
// into sync.Pool-recycled buffers and decoding is a tag-table lookup, so
// a steady-state send performs no reflection and no allocation; payload
// types must be registered with wire.RegisterPayload (internal/protocol
// registers WILDFIRE's messages in package init, test harnesses use
// tags ≥ wire.TagReservedBase).
//
// Sends do not write the socket directly: each connection has a writer
// goroutine draining a per-peer queue, packing every frame queued at that
// moment — whatever arrived while the previous write was in flight — into
// one buffered write, which adds no latency and compounds under
// -concurrency, since one connection already multiplexes many queries'
// traffic.
//
// Hosts that share an address short-circuit in process without touching a
// socket, which is what makes sharding |H| hosts across a handful of OS
// processes cheap. Outbound connections are dialed lazily with retry, so
// a fleet of validityd processes can start in any order.
type TCP struct {
	addrs []string // host → advertised address

	// DialTimeout bounds one connection attempt; DialBudget bounds the
	// total time Send spends retrying a dial (peers may still be starting).
	// WriteTimeout bounds one batch write, so a stalled peer (full kernel
	// buffer, blackholed link) cannot freeze the writer goroutine — the
	// write errors, the connection drops, and the writer redials and
	// retries the batch once.
	DialTimeout  time.Duration
	DialBudget   time.Duration
	WriteTimeout time.Duration
	// Failed dials retry with capped exponential backoff: the wait starts
	// at DialBackoff, doubles per failure up to DialBackoffMax, and each
	// sleep is jittered ±50% so a fleet booting in lockstep does not
	// hammer a slow peer in synchronized waves.
	DialBackoff    time.Duration
	DialBackoffMax time.Duration

	// Obs, when set before Open, receives the transport's wire metrics:
	// dial attempts and backoff sleeps, inbound frames/bytes, outbound
	// frames/bytes per peer address, and the write-coalescing figures
	// (batch flushes, frames-per-write distribution, frames dropped on
	// write failure). Nil leaves the transport uninstrumented (every
	// update is one nil branch).
	Obs *obs.Registry
	// Log, when set before Open, receives the transport's warnings (an
	// inbound connection dropped for an undecodable frame, a frame for a
	// host this process does not serve); nil means slog.Default().
	Log *slog.Logger

	// met holds the pre-registered counters, built once in Open; its
	// per-peer maps are read-only afterwards, so writers touch no lock for
	// metrics. The zero value (all nil) is the disabled form.
	met tcpMetrics

	mu        sync.Mutex
	recv      map[graph.HostID]RecvFunc
	listeners map[string]net.Listener
	conns     map[string]*tcpConn
	dialing   map[string]*sync.Mutex
	writers   map[string]*peerWriter
	opened    bool
	closed    bool
	quit      chan struct{}
	wg        sync.WaitGroup
}

// tcpMetrics is the transport's pre-registered counter set; nil counters
// (no registry) make every update a no-op.
type tcpMetrics struct {
	dialAttempts *obs.Counter
	dialBackoffs *obs.Counter
	framesIn     *obs.Counter
	bytesIn      *obs.Counter
	undecodable  *obs.Counter
	misrouted    *obs.Counter
	batchFlushes *obs.Counter
	framesPerWr  *obs.Histogram
	framesDrop   *obs.Counter
	framesOut    map[string]*obs.Counter // by peer address
	bytesOut     map[string]*obs.Counter
	// The unknown-peer pair catches frames routed to an address outside
	// the static map built at Open (a peer table extended after boot):
	// they are counted under peer=unknown instead of vanishing into a nil
	// counter.
	framesOutUnknown *obs.Counter
	bytesOutUnknown  *obs.Counter
}

// outCounters resolves the per-peer outbound pair, falling back to the
// peer=unknown series for addresses missing from the static map.
func (m *tcpMetrics) outCounters(addr string) (frames, bytes *obs.Counter) {
	if f, ok := m.framesOut[addr]; ok {
		return f, m.bytesOut[addr]
	}
	return m.framesOutUnknown, m.bytesOutUnknown
}

// initMetrics registers the transport's counters, one labeled series per
// distinct peer address for the outbound pair. Called from Open under t.mu.
func (t *TCP) initMetrics() {
	reg := t.Obs
	if reg == nil {
		return
	}
	t.met = tcpMetrics{
		dialAttempts: reg.Counter("transport_dial_attempts_total", "Outbound TCP dial attempts (including retries)."),
		dialBackoffs: reg.Counter("transport_dial_backoffs_total", "Backoff sleeps between failed dial attempts."),
		framesIn:     reg.Counter("transport_frames_in_total", "Frames decoded off inbound connections."),
		bytesIn:      reg.Counter("transport_bytes_in_total", "Wire bytes read off inbound connections (length prefix included)."),
		undecodable:  reg.Counter("transport_frames_undecodable_total", "Inbound frames that failed to decode (bad version, tag or body); each drops its connection."),
		misrouted:    reg.Counter("transport_frames_misrouted_total", "Inbound frames addressed to a host this process does not serve (processes disagree on which host lives where); each is dropped."),
		batchFlushes: reg.Counter("transport_batch_flushes_total", "Coalesced batch writes flushed to peers."),
		framesPerWr:  reg.Histogram("transport_frames_per_write", "Frames packed into one connection write.", batchBuckets),
		framesDrop:   reg.Counter("transport_frames_dropped_total", "Outbound frames dropped after a failed write and failed retry."),
		framesOut:    make(map[string]*obs.Counter),
		bytesOut:     make(map[string]*obs.Counter),
		framesOutUnknown: reg.Counter("transport_frames_out_total",
			"Frames written to a peer.", "peer=unknown"),
		bytesOutUnknown: reg.Counter("transport_bytes_out_total",
			"Wire bytes written to a peer (length prefix included).", "peer=unknown"),
	}
	local := make(map[string]bool, len(t.recv))
	for h := range t.recv {
		local[t.addrs[h]] = true
	}
	for _, addr := range t.addrs {
		if local[addr] {
			continue // same-process deliveries never touch the wire
		}
		if _, ok := t.met.framesOut[addr]; ok {
			continue
		}
		t.met.framesOut[addr] = reg.Counter("transport_frames_out_total", "Frames written to a peer.", "peer="+addr)
		t.met.bytesOut[addr] = reg.Counter("transport_bytes_out_total", "Wire bytes written to a peer (length prefix included).", "peer="+addr)
	}
}

// batchBuckets grades the frames-per-write histogram: 1 means no
// coalescing happened, the upper buckets say how hard the writer is
// packing under load.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// tcpConn serializes frame writes on one outbound connection.
type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
}

// outFrame is one encoded frame awaiting its peer's writer; the buffers
// recycle through framePool so steady-state sends allocate nothing.
type outFrame struct {
	b []byte
}

var framePool = sync.Pool{New: func() any { return &outFrame{b: make([]byte, 0, 1024)} }}

// NewTCP returns a TCP transport where addrs[h] is the address serving
// host h. The caller Binds its local hosts and then Opens; one listener is
// created per distinct local address.
func NewTCP(addrs []string) *TCP {
	return &TCP{
		addrs:          addrs,
		DialTimeout:    500 * time.Millisecond,
		DialBudget:     5 * time.Second,
		WriteTimeout:   10 * time.Second,
		DialBackoff:    20 * time.Millisecond,
		DialBackoffMax: 500 * time.Millisecond,
		recv:           make(map[graph.HostID]RecvFunc),
		listeners:      make(map[string]net.Listener),
		conns:          make(map[string]*tcpConn),
		dialing:        make(map[string]*sync.Mutex),
		writers:        make(map[string]*peerWriter),
		quit:           make(chan struct{}),
	}
}

// Bind implements Transport.
func (t *TCP) Bind(h graph.HostID, recv RecvFunc) error {
	if h < 0 || int(h) >= len(t.addrs) {
		return fmt.Errorf("transport: host %d has no address", h)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opened {
		return fmt.Errorf("transport: bind after open")
	}
	if _, ok := t.recv[h]; ok {
		return fmt.Errorf("transport: host %d already bound", h)
	}
	t.recv[h] = recv
	return nil
}

// Open implements Transport: one listener per distinct address among the
// bound hosts starts accepting inbound frames.
func (t *TCP) Open() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opened {
		return fmt.Errorf("transport: already open")
	}
	t.opened = true
	t.initMetrics()
	for h := range t.recv {
		addr := t.addrs[h]
		if _, ok := t.listeners[addr]; ok {
			continue
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("transport: listen %s: %w", addr, err)
		}
		t.listeners[addr] = l
		t.wg.Add(1)
		go t.acceptLoop(l)
	}
	return nil
}

func (t *TCP) acceptLoop(l net.Listener) {
	defer t.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

func (t *TCP) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	done := make(chan struct{})
	defer close(done)
	go func() { // unblock the pending Read when the transport closes
		select {
		case <-t.quit:
			c.Close()
		case <-done: // connection ended on its own; don't linger
		}
	}()
	// The peer coalesces many frames into one write, so one kernel read
	// commonly carries a whole batch; the buffered reader slices frames
	// out of it without a syscall each.
	br := bufio.NewReaderSize(c, 64<<10)
	var lenBuf [4]byte
	var body []byte // one buffer per connection: payload codecs never alias it
	warnedMisrouted := false
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			return
		}
		body = slices.Grow(body[:0], int(n))[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		f, err := wire.DecodeFrameBody(body)
		if err != nil {
			// Corrupt or hostile stream, or a peer on another build: drop
			// the connection, but not without a trace — a fleet that mixes
			// wire versions would otherwise just go quiet.
			t.met.undecodable.Inc()
			t.log().Warn("transport: dropping connection on undecodable frame", "peer", c.RemoteAddr().String(), "err", err)
			return
		}
		t.met.framesIn.Inc()
		t.met.bytesIn.Add(int64(n) + 4)
		served := t.deliverLocal(Message{
			From:    f.From,
			To:      f.To,
			Query:   QueryID(f.Query),
			Chain:   f.Chain,
			Payload: f.Payload,
		})
		if !served {
			// The peer maps the host to this process and this process does
			// not: the two were started with different host→address maps.
			// The connection stays up for the frames that are routed right.
			t.met.misrouted.Inc()
			if !warnedMisrouted {
				warnedMisrouted = true
				t.log().Warn("transport: dropping frames for a host this process does not serve",
					"host", f.To, "from", f.From, "peer", c.RemoteAddr().String())
			}
		}
	}
}

// log is where the transport's warnings go.
func (t *TCP) log() *slog.Logger {
	if t.Log != nil {
		return t.Log
	}
	return slog.Default()
}

// deliverLocal hands msg to the bound RecvFunc and reports whether its
// destination is served here; a frame that arrives after Close is dropped
// either way.
func (t *TCP) deliverLocal(msg Message) (served bool) {
	t.mu.Lock()
	fn, served := t.recv[msg.To]
	if t.closed {
		fn = nil
	}
	t.mu.Unlock()
	if fn != nil {
		fn(msg)
	}
	return served
}

// Send implements Transport. Destinations served by this process are
// delivered directly; remote destinations are encoded into a pooled
// buffer and enqueued on the destination peer's writer, which packs
// queued frames into batched connection writes. Send still dials
// synchronously when no connection exists — with the same retry budget as
// before — so a fleet booting in arbitrary order blocks senders, not the
// writer goroutines, until the peer appears. The queued frame keeps
// nothing of msg.Payload, and Send releases nothing: a caller may send one
// payload any number of times.
func (t *TCP) Send(msg Message) error {
	if msg.To < 0 || int(msg.To) >= len(t.addrs) {
		return fmt.Errorf("transport: destination %d has no address", msg.To)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("transport: send on closed transport")
	}
	_, local := t.recv[msg.To]
	t.mu.Unlock()

	if local {
		t.deliverLocal(msg)
		return nil
	}

	fr := framePool.Get().(*outFrame)
	b, err := wire.AppendFrame(fr.b[:0], wire.Frame{
		From:    msg.From,
		To:      msg.To,
		Query:   int64(msg.Query),
		Chain:   msg.Chain,
		Payload: msg.Payload,
	})
	if err != nil {
		framePool.Put(fr)
		return fmt.Errorf("transport: encode to %d: %w", msg.To, err)
	}
	fr.b = b

	addr := t.addrs[msg.To]
	if _, err := t.conn(addr); err != nil {
		framePool.Put(fr)
		return err
	}
	w, err := t.writer(addr)
	if err != nil {
		framePool.Put(fr)
		return err
	}
	w.enqueue(fr)
	return nil
}

// Serializes implements Transport: a frame for a host bound elsewhere is
// encoded inside Send, and Send keeps no reference to its payload.
func (t *TCP) Serializes(h graph.HostID) bool {
	t.mu.Lock()
	_, local := t.recv[h]
	t.mu.Unlock()
	return !local
}

// writer returns addr's writer goroutine, starting it on first use.
func (t *TCP) writer(addr string) (*peerWriter, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("transport: send on closed transport")
	}
	if w, ok := t.writers[addr]; ok {
		return w, nil
	}
	w := &peerWriter{t: t, addr: addr, kick: make(chan struct{}, 1)}
	w.framesOut, w.bytesOut = t.met.outCounters(addr)
	t.writers[addr] = w
	t.wg.Add(1)
	go w.loop()
	return w, nil
}

// peerWriter drains one peer's outbound queue, packing every frame queued
// at pickup into a single connection write.
type peerWriter struct {
	t    *TCP
	addr string
	kick chan struct{} // buffered(1): coalesces enqueue signals

	mu    sync.Mutex
	queue []*outFrame
	spare []*outFrame // the array behind the batch take handed out last

	framesOut *obs.Counter
	bytesOut  *obs.Counter
}

func (w *peerWriter) enqueue(fr *outFrame) {
	w.mu.Lock()
	w.queue = append(w.queue, fr)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default: // a wake-up is already pending; the writer will see this frame
	}
}

// take removes up to maxBatch frames from the queue. The batch is the
// caller's until its next take: the queue and the batch swap between two
// retained arrays, so a steady stream of sends regrows neither.
func (w *peerWriter) take() []*outFrame {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := min(len(w.queue), maxBatch)
	if n == 0 {
		return nil
	}
	batch := w.queue[:n:n]
	w.queue, w.spare = append(w.spare[:0], w.queue[n:]...), w.queue[:0]
	return batch
}

func (w *peerWriter) loop() {
	t := w.t
	defer t.wg.Done()
	var wbuf []byte // batch assembly buffer, reused across flushes
	for {
		select {
		case <-t.quit:
			return
		case <-w.kick:
		}
		for {
			batch := w.take()
			if len(batch) == 0 {
				break
			}
			wbuf = wbuf[:0]
			for _, fr := range batch {
				wbuf = append(wbuf, fr.b...)
			}
			err := w.flush(wbuf)
			for _, fr := range batch {
				framePool.Put(fr)
			}
			if err != nil {
				t.met.framesDrop.Add(int64(len(batch)))
			} else {
				t.met.batchFlushes.Inc()
				t.met.framesPerWr.Observe(float64(len(batch)))
				w.framesOut.Add(int64(len(batch)))
				w.bytesOut.Add(int64(len(wbuf)))
			}
		}
	}
}

// flush writes one assembled batch, redialing and retrying once on a
// write error (the peer may have restarted); a second failure drops the
// batch — the protocols tolerate loss, and the engine's per-query drop
// counters surface it.
func (w *peerWriter) flush(batch []byte) error {
	t := w.t
	for attempt := 0; ; attempt++ {
		conn, err := t.conn(w.addr)
		if err != nil {
			return err
		}
		conn.mu.Lock()
		if t.WriteTimeout > 0 {
			conn.c.SetWriteDeadline(time.Now().Add(t.WriteTimeout))
		}
		_, err = conn.c.Write(batch)
		conn.mu.Unlock()
		if err == nil {
			return nil
		}
		t.dropConn(w.addr, conn)
		if attempt == 1 {
			return fmt.Errorf("transport: write to %s: %w", w.addr, err)
		}
	}
}

// conn returns the cached connection to addr, dialing with retry if none
// exists. Dials to distinct addresses proceed in parallel; concurrent
// senders to the same address share one dial attempt at a time through a
// per-address single-flight lock. The lock is held only across one
// attempt, never across a backoff sleep: a host-goroutine Send racing a
// Warm that is backing off from a still-booting peer dials immediately
// instead of waiting out the warmer's (possibly long) retry schedule.
func (t *TCP) conn(addr string) (*tcpConn, error) {
	t.mu.Lock()
	if c, ok := t.conns[addr]; ok {
		t.mu.Unlock()
		return c, nil
	}
	dmu, ok := t.dialing[addr]
	if !ok {
		dmu = &sync.Mutex{}
		t.dialing[addr] = dmu
	}
	t.mu.Unlock()

	deadline := time.Now().Add(t.DialBudget)
	backoff := t.DialBackoff
	if backoff <= 0 {
		backoff = 20 * time.Millisecond
	}
	for {
		c, err := t.dialOnce(addr, dmu)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		var wait time.Duration
		wait, backoff = dialBackoff(backoff, t.DialBackoffMax, rand.Int63n)
		t.met.dialBackoffs.Inc()
		select {
		case <-time.After(wait):
		case <-t.quit:
			return nil, fmt.Errorf("transport: closed while dialing %s", addr)
		}
	}
}

// dialOnce performs a single dial attempt to addr under the per-address
// single-flight lock, re-checking the cache first (another sender may
// have won while we waited for the lock or slept out a backoff).
func (t *TCP) dialOnce(addr string, dmu *sync.Mutex) (*tcpConn, error) {
	dmu.Lock()
	defer dmu.Unlock()
	t.mu.Lock()
	if c, ok := t.conns[addr]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	t.met.dialAttempts.Inc()
	c, err := net.DialTimeout("tcp", addr, t.DialTimeout)
	if err != nil {
		return nil, err
	}
	tc := &tcpConn{c: c}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("transport: closed while dialing %s", addr)
	}
	t.conns[addr] = tc
	t.mu.Unlock()
	return tc, nil
}

// dialBackoff returns the jittered wait before the next dial attempt and
// the escalated backoff for the attempt after it: capped exponential with
// ±50% jitter. A peer that is still booting is retried quickly at first,
// then ever more gently, and concurrent processes desynchronize instead
// of re-dialing a slow peer in lockstep waves. rnd is rand.Int63n
// (injected for deterministic tests).
func dialBackoff(cur, max time.Duration, rnd func(int64) int64) (wait, next time.Duration) {
	if cur <= 0 {
		cur = 20 * time.Millisecond
	}
	if max > 0 && cur > max {
		cur = max // a starting backoff above the cap still honors the cap
	}
	wait = cur/2 + time.Duration(rnd(int64(cur)))
	next = cur
	if max > 0 && cur < max {
		next = 2 * cur
		if next > max {
			next = max
		}
	}
	return wait, next
}

func (t *TCP) dropConn(addr string, c *tcpConn) {
	t.mu.Lock()
	if t.conns[addr] == c {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
	c.c.Close()
}

// Warm implements Warmer: every distinct remote address is dialed in the
// background so the connection cache is hot before the first query's
// frames need it. Dial attempts share the per-address single-flight locks
// with Send, so a send racing a warm-up blocks on one attempt at most —
// never on the warmer's backoff sleeps — and duplicate connections are
// not opened. Failures are ignored — a peer that is still booting will be
// dialed again lazily on first send.
func (t *TCP) Warm() {
	t.mu.Lock()
	local := make(map[string]bool, len(t.recv))
	for h := range t.recv {
		local[t.addrs[h]] = true
	}
	remote := make(map[string]bool)
	for _, addr := range t.addrs {
		if !local[addr] {
			remote[addr] = true
		}
	}
	t.mu.Unlock()
	for addr := range remote {
		t.wg.Add(1)
		go func(addr string) {
			defer t.wg.Done()
			t.conn(addr) // cache on success; lazy dial retries on failure
		}(addr)
	}
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.quit)
	for _, l := range t.listeners {
		l.Close()
	}
	for _, c := range t.conns {
		c.c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
