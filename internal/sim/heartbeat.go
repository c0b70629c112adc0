package sim

import "validity/internal/graph"

// HeartbeatMonitor implements the failure-detection mechanism of §3.1:
// hosts send heartbeats to their neighbors every T_hb ticks; if a host
// does not hear from a neighbor within T_hb + δ of the previous
// heartbeat, it deduces the neighbor has failed. (With δ = 1 tick, the
// detection horizon is T_hb + 1.)
//
// The monitor is a Handler decorator: wrap a protocol handler with
// NewHeartbeatMonitor and the wrapped handler transparently gains a
// NeighborAlive view while heartbeat traffic and suspicion bookkeeping
// stay out of its way. Heartbeat messages are delivered to the monitor
// only; everything else passes through.
type HeartbeatMonitor struct {
	inner Handler
	thb   Time
	// lastSeen[n] is the time of the most recent heartbeat (or any
	// message — real traffic proves liveness just as well) from n.
	lastSeen map[graph.HostID]Time
	started  bool
}

// heartbeatMsg is the periodic liveness beacon; its entire content is its
// type. It has no wire tag, so monitored handlers run on the event loop
// and the in-process transport only.
type heartbeatMsg struct{}

// heartbeatTag drives the periodic send timer; chosen high to avoid
// colliding with protocol tags.
const heartbeatTag = 1 << 20

// NewHeartbeatMonitor wraps inner with heartbeat failure detection at
// period thb (must be ≥ 1).
func NewHeartbeatMonitor(inner Handler, thb Time) *HeartbeatMonitor {
	if thb < 1 {
		panic("sim: heartbeat period must be ≥ 1")
	}
	return &HeartbeatMonitor{inner: inner, thb: thb, lastSeen: make(map[graph.HostID]Time)}
}

// NeighborAlive reports whether n is believed alive: a heartbeat (or any
// message) from n arrived within the last T_hb + δ ticks. Before the
// first detection horizon elapses every neighbor is presumed alive.
func (m *HeartbeatMonitor) NeighborAlive(now Time, n graph.HostID) bool {
	last, ok := m.lastSeen[n]
	if !ok {
		// No message yet: presume alive until one full horizon has
		// passed since startup (neighbors beat at t=0, arriving t=1).
		return now <= m.thb+1
	}
	return now-last <= m.thb+1
}

// SuspectedFailures returns the neighbors currently believed failed, in
// unspecified order.
func (m *HeartbeatMonitor) SuspectedFailures(now Time, neighbors []graph.HostID) []graph.HostID {
	var out []graph.HostID
	for _, n := range neighbors {
		if !m.NeighborAlive(now, n) {
			out = append(out, n)
		}
	}
	return out
}

// Start implements Handler: begin beating, then start the inner handler.
func (m *HeartbeatMonitor) Start(ctx *Context) {
	m.started = true
	ctx.SendAll(heartbeatMsg{})
	ctx.SetTimer(ctx.Now()+m.thb, heartbeatTag)
	m.inner.Start(ctx)
}

// Receive implements Handler: absorb heartbeats, refresh liveness on any
// traffic, and forward everything else.
func (m *HeartbeatMonitor) Receive(ctx *Context, msg Message) {
	m.lastSeen[msg.From] = ctx.Now()
	if _, ok := msg.Payload.(heartbeatMsg); ok {
		return
	}
	m.inner.Receive(ctx, msg)
}

// Timer implements Handler: periodic beat, other tags forwarded.
func (m *HeartbeatMonitor) Timer(ctx *Context, tag int) {
	if tag == heartbeatTag {
		ctx.SendAll(heartbeatMsg{})
		ctx.SetTimer(ctx.Now()+m.thb, heartbeatTag)
		return
	}
	m.inner.Timer(ctx, tag)
}

// Inner returns the wrapped handler (for post-run inspection).
func (m *HeartbeatMonitor) Inner() Handler { return m.inner }
