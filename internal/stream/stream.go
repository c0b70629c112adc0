package stream

import (
	"fmt"
	"sync"
	"time"

	"validity/internal/node"
	"validity/internal/obs"
	"validity/internal/oracle"
)

// Result is one window's outcome, delivered in window order.
type Result struct {
	// Window is the 0-based window index; Start/End delimit the window
	// [Start, End) on the stream's absolute clock, in δ ticks.
	Window     int
	Start, End int64
	// Value is the result declared at h_q for this window.
	Value float64
	// Lower and Upper are this window's own q(H_C) / q(H_U) bounds; HC
	// and HU are the bound set sizes.
	Lower, Upper float64
	HC, HU       int
	// Slack is the multiplicative FM tolerance Valid was judged with.
	Slack float64
	// Valid reports whether Value satisfies this window's Continuous
	// Single-Site Validity (exactly for min/max, within Slack otherwise).
	Valid bool
	// Stats is this process's share of the window's §6.3 cost counters.
	Stats node.Stats
	// Latency is window-open to answer-in-hand wall time; adaptive result
	// reads make it track actual convergence, not the deadline.
	Latency time.Duration
	// Err, when non-nil, reports a window that could not be executed; the
	// stream stops after delivering it.
	Err error
}

// Results is the in-order window result channel of a Stream. It is
// closed after the last window (or after a Result carrying Err).
type Results <-chan Result

// Stream drives one continuous query on the issuing process: the
// runtime's shared timer heap opens window k's sub-query at stream tick
// k·W, a collector reads each window's result as soon as it has converged
// (Runtime.AwaitQueryResult, deadline as the hard cap), judges it against
// the window's own oracle bounds, and delivers Results in window order.
// Workers run no Stream — their window instances materialize from the
// Plan's factory on first contact, and the engine's ordinary retirement
// reclaims each window's state when the collector has read its answer.
type Stream struct {
	rt     *node.Runtime
	plan   *Plan
	out    chan Result
	opened []chan opening
	quit   chan struct{}
	once   sync.Once
	// lat is window-open→answer-in-hand latency on the runtime's registry
	// (nil when the runtime is uninstrumented).
	lat *obs.Histogram
}

// opening records when a window's sub-query was issued.
type opening struct {
	at  time.Time
	err error
}

// Start validates the plan and begins the stream: one timer-heap entry
// per window opens its sub-query on schedule, and the returned Stream's
// Results() delivers the windows in order. The runtime must already be
// started with a factory that serves the plan's window ids (Plan.Factory,
// or a dispatcher that falls through to it).
func Start(rt *node.Runtime, p *Plan) (*Stream, error) {
	if err := p.init(); err != nil {
		return nil, err
	}
	hop := rt.Hop()
	if hop <= 0 {
		return nil, fmt.Errorf("stream: runtime has no per-hop duration; windows need a wall clock")
	}
	s := &Stream{
		rt:     rt,
		plan:   p,
		out:    make(chan Result, p.Windows),
		opened: make([]chan opening, p.Windows),
		quit:   make(chan struct{}),
	}
	for k := range s.opened {
		s.opened[k] = make(chan opening, 1)
	}
	s.lat = rt.Obs().Histogram("stream_window_latency_ms",
		"Window open to answer-in-hand wall time, ms.", obs.LatencyBucketsMs)
	for k := 0; k < p.Windows; k++ {
		k := k
		rt.After(time.Duration(p.WindowStart(k))*hop, func() { s.open(k) })
	}
	go s.collect()
	return s, nil
}

// Results returns the in-order window result channel.
func (s *Stream) Results() Results { return s.out }

// Close abandons the stream: pending window opens become no-ops and the
// collector exits. Windows already in flight retire through the engine's
// ordinary lifecycle. Closing a completed stream is a no-op.
func (s *Stream) Close() { s.once.Do(func() { close(s.quit) }) }

// open issues window k's sub-query; it runs on a timer-heap goroutine at
// the window's scheduled tick.
func (s *Stream) open(k int) {
	select {
	case <-s.quit:
		return
	default:
	}
	at := time.Now()
	_, err := s.rt.StartQuery(WindowID(s.plan.Query, k))
	s.opened[k] <- opening{at: at, err: err}
}

// collect awaits each window's convergence in order and emits Results.
func (s *Stream) collect() {
	defer close(s.out)
	var (
		p      = s.plan
		spec   = p.Spec
		g      = s.rt.Graph()
		values = s.rt.Values()
		slack  = oracle.FMSlack(spec.Kind, spec.Params.Vectors)
	)
	// Adaptive read bracket per window, shared with the daemon's one-shot
	// reads (node.AwaitBracket): the runtime's sound floor, quiescence
	// settle, and the old sleep-out-the-deadline budget as the hard cap.
	floor, settle, hardCap := s.rt.AwaitBracket(spec.Deadline())
	for k := 0; k < p.Windows; k++ {
		var op opening
		select {
		case op = <-s.opened[k]:
		case <-s.quit:
			return
		}
		res := Result{
			Window: k,
			Start:  int64(p.WindowStart(k)),
			End:    int64(p.WindowEnd(k)),
			Slack:  slack,
		}
		if op.err != nil {
			res.Err = fmt.Errorf("stream: opening window %d: %w", k, op.err)
			s.emit(res)
			return
		}
		id := WindowID(p.Query, k)
		// Anchor the bracket at the window's open time, not at this call:
		// the sharded floor can exceed W·hop, so a collector that re-waited
		// the full floor per window would drift further behind every
		// window and eventually read windows already retired by the
		// engine. Elapsed collection lag counts against this window's
		// budget instead.
		lag := time.Since(op.at)
		f, c := floor-lag, hardCap-lag
		if f < 0 {
			f = 0
		}
		if c < 0 {
			c = 0
		}
		v, ok, err := s.rt.AwaitQueryResult(id, spec.Hq, f, settle, c)
		res.Latency = time.Since(op.at)
		s.lat.Observe(float64(res.Latency) / float64(time.Millisecond))
		if err == nil && !ok {
			err = fmt.Errorf("stream: window %d declared no result at h_q=%d", k, spec.Hq)
		}
		if err != nil {
			res.Err = err
			s.emit(res)
			return
		}
		b, err := p.Bounds(g, values, k)
		if err != nil {
			res.Err = err
			s.emit(res)
			return
		}
		res.Value = v
		res.Lower, res.Upper = b.LowerValue, b.UpperValue
		res.HC, res.HU = len(b.HC), len(b.HU)
		res.Valid = b.ValidFactor(v, slack)
		if st, known := s.rt.QueryStats(id); known {
			res.Stats = st
		}
		s.emit(res)
	}
}

func (s *Stream) emit(r Result) {
	select {
	case s.out <- r:
	case <-s.quit:
	}
}
