package transport

import (
	"fmt"
	"sync"
	"time"

	"validity/internal/graph"
)

// Channel is the in-process Transport: every host lives in the calling
// process and messages are handed between goroutines directly. An optional
// delay emulates the per-hop bound δ in wall-clock time, which is what
// lets the node runtime's tick arithmetic (deadlines, early-deadline
// guards) stay faithful to the paper's model when no real network is
// involved.
//
// In-flight messages sit on one FIFO delivery queue drained by a single
// scheduler goroutine, not a goroutine per send: every send shares the
// same delay, so due times are monotone in send order and the queue head
// is always the next delivery — no timer heap, and a 2K-host fleet's
// flood of in-flight messages costs one goroutine plus a queue entry each
// instead of a goroutine each. The queue is a ring (deliveryRing) that
// grows to the largest burst it has held and is then reused for every
// later burst: a steady-state Send allocates nothing.
type Channel struct {
	n     int
	delay time.Duration

	mu      sync.Mutex
	recv    []RecvFunc
	closed  bool
	pending deliveryRing
	// wake nudges the scheduler when a send lands on an empty queue — the
	// only time it can be parked without a timer for the head; cap 1
	// because one pending signal is enough — the scheduler re-examines the
	// queue every pass.
	wake chan struct{}
	quit chan struct{}
	// The scheduler starts lazily on the first send (sync.Once), not in
	// Open: encode/decode tests legitimately Send on a never-Opened
	// transport, and an idle transport should cost nothing.
	startOnce sync.Once
	wg        sync.WaitGroup
}

// delivery is one in-flight message and the instant it becomes due.
type delivery struct {
	due time.Time
	msg Message
}

// deliveryRing is a FIFO of deliveries over a power-of-two circular
// buffer. It doubles when full and never shrinks, so the buffer a burst
// grew is the buffer the next burst fills; pop zeroes the slot it
// vacates, so a delivered payload is not pinned until the ring wraps.
type deliveryRing struct {
	buf  []delivery // len is zero or a power of two
	head int        // index of the oldest entry
	n    int        // entries queued
}

// ringMinCap is the ring's first allocation: small enough to cost an idle
// transport nothing, large enough that a 60-host query never regrows it.
const ringMinCap = 64

func (r *deliveryRing) push(d delivery) {
	if r.n == len(r.buf) {
		grown := make([]delivery, max(2*len(r.buf), ringMinCap))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = d
	r.n++
}

// front returns the oldest entry; the ring must not be empty.
func (r *deliveryRing) front() *delivery { return &r.buf[r.head] }

func (r *deliveryRing) pop() delivery {
	d := r.buf[r.head]
	r.buf[r.head] = delivery{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return d
}

// NewChannel returns an in-process transport for hosts 0..n-1 where each
// delivery takes `delay` of wall-clock time (0 = immediate).
func NewChannel(n int, delay time.Duration) *Channel {
	return &Channel{
		n:     n,
		delay: delay,
		recv:  make([]RecvFunc, n),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
}

// Bind implements Transport.
func (c *Channel) Bind(h graph.HostID, recv RecvFunc) error {
	if h < 0 || int(h) >= c.n {
		return fmt.Errorf("transport: host %d outside [0,%d)", h, c.n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recv[h] != nil {
		return fmt.Errorf("transport: host %d already bound", h)
	}
	c.recv[h] = recv
	return nil
}

// Open implements Transport; the channel transport needs no setup.
func (c *Channel) Open() error { return nil }

// Send implements Transport: the message is delivered to the destination's
// RecvFunc after the configured delay.
func (c *Channel) Send(msg Message) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("transport: send on closed channel transport")
	}
	if msg.To < 0 || int(msg.To) >= c.n {
		c.mu.Unlock()
		return fmt.Errorf("transport: destination %d outside [0,%d)", msg.To, c.n)
	}
	wasEmpty := c.pending.n == 0
	c.pending.push(delivery{due: time.Now().Add(c.delay), msg: msg})
	c.mu.Unlock()
	if wasEmpty {
		c.startOnce.Do(c.start)
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// Serializes implements Transport: every delivery is in process.
func (c *Channel) Serializes(graph.HostID) bool { return false }

func (c *Channel) start() {
	c.wg.Add(1)
	go c.schedule()
}

// schedule is the delivery scheduler: it sleeps until the queue head is
// due, then delivers it. Due times are monotone in send order (all sends
// share one delay and enqueue under c.mu), so plain FIFO order is also
// earliest-deadline order.
func (c *Channel) schedule() {
	defer c.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if c.pending.n == 0 {
			c.mu.Unlock()
			select {
			case <-c.wake:
				continue
			case <-c.quit:
				return
			}
		}
		if wait := time.Until(c.pending.front().due); wait > 0 {
			c.mu.Unlock()
			timer.Reset(wait)
			select {
			case <-timer.C:
				continue
			case <-c.quit:
				timer.Stop()
				return
			}
		}
		d := c.pending.pop()
		fn := c.recv[d.msg.To]
		c.mu.Unlock()
		if fn != nil {
			fn(d.msg)
		}
	}
}

// Close implements Transport.
func (c *Channel) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.quit)
	}
	c.mu.Unlock()
	c.wg.Wait()
	return nil
}
