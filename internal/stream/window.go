// Package stream is the one definition of a continuous query (§4.2). A
// long-running aggregate cannot be judged as a single query — over a long
// [0, t] the stable set H_C empties out in any churning network — so a
// Plan re-runs a valid one-shot WILDFIRE query once per window of length
// W ≥ 2·D̂ and judges every window against its own H_C/H_U. Window k of
// continuous query Q is the ordinary query WindowID(Q, k): every process
// of a sharded fleet lazily materializes identical per-window protocol
// instances, FM coin tosses, and membership slices from the shared seed,
// the continuous query's id, and the window index alone — the same
// no-coordination discipline the engine uses for one-shot queries,
// extended in time. Nothing about the stream crosses the wire: workers
// need no notion of "continuous" beyond a factory that recognizes window
// ids (Plan.Factory).
//
// Dynamism is expressed once, on the stream's absolute clock: an
// operator-named event timeline and/or a generated churn.Source spanning
// the whole run [0, N·W]. Slice re-bases it per window — an event at
// absolute tick t, departure or join, lands in window ⌊t/W⌋ at tick
// t mod W of that window's own clock, hosts absent when a window opens
// enter it dead at tick 0, and a join mid-window brings its host alive
// on the window sub-query's own clock — so each window's membership is
// enforced locally while the oracle (oracle.ComputeInterval) judges the
// window against its own H_C/H_U, whose population grows across windows
// when arrivals outpace departures.
//
// A Plan has two executors, sharing the window family, the seeds, the
// slices and Bounds. Start drives it on a live node.Runtime over any
// transport: the timer heap opens window k at stream tick k·W and Results
// stream to the caller in window order with per-window §6.3 cost
// counters. RunSim runs it on the deterministic event loop, one fresh
// sim.Network per window — what the public validity facade calls.
package stream

import (
	"fmt"
	"sort"
	"sync"

	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/node"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
)

// WindowID derives the engine QueryID of window k of continuous query q.
// The layout is positional — high bits carry k+1, the low 32 bits carry q
// — so window ids never collide with the small sequential ids of one-shot
// streams, and every process recovers (q, k) from a frame's id alone
// (SplitWindowID) with no registration traffic.
func WindowID(q node.QueryID, k int) node.QueryID {
	return node.QueryID(int64(k+1)<<32 | int64(q))
}

// SplitWindowID recovers the continuous query and window index from a
// window id; ok is false for ordinary (one-shot) query ids.
func SplitWindowID(id node.QueryID) (q node.QueryID, k int, ok bool) {
	hi := int64(id) >> 32
	if hi <= 0 {
		return 0, 0, false
	}
	return node.QueryID(int64(id) & 0xFFFFFFFF), int(hi - 1), true
}

// Slice splits an absolute membership timeline into n window-relative
// timelines: an event at absolute tick t lands in window k = ⌊t/w⌋ — the
// window whose [k·w, (k+1)·w) interval contains it — at tick t − k·w of
// that window's own clock, joins and departures alike, so every event
// lands in exactly one window. A tick of exactly k·w re-bases to tick 0
// of window k: a departing host was never a member of that window (and,
// by the oracle's convention, does not survive window k−1), a joining
// host is a member from the window's very first instant. Events at or
// past n·w are beyond the stream's horizon and are dropped; negative
// ticks clamp into window 0 at tick 0, mirroring the engine's
// before-the-query-existed rule.
func Slice(tl churn.Timeline, w sim.Time, n int) []churn.Timeline {
	out := make([]churn.Timeline, n)
	if w <= 0 || n <= 0 {
		return out
	}
	for _, e := range tl {
		if e.T < 0 {
			e.T = 0
		}
		k := int(e.T / w)
		if k >= n {
			continue
		}
		e.T -= sim.Time(k) * w
		out[k] = append(out[k], e)
	}
	for k := range out {
		sort.SliceStable(out[k], func(i, j int) bool { return out[k][i].T < out[k][j].T })
	}
	return out
}

// Plan is the shared description of one continuous query — the spec every
// process of the fleet derives identically from its flags, exactly like a
// one-shot query spec. The issuing process additionally drives a Stream
// over it; workers only need Factory.
type Plan struct {
	// Query is the continuous query's base id (≥ 1, below 2³²: window ids
	// pack it into their low 32 bits).
	Query node.QueryID
	// Spec is the per-window sub-query: aggregate, querying host, D̂, and
	// sketch sizing. Every window re-executes it with fresh per-window FM
	// coins.
	Spec protocol.Query
	// WindowLen is W in δ ticks; 0 means exactly 2·D̂, the §4.2
	// computability minimum W ≥ 2·D̂·δ below which a window cannot fit a
	// valid one-shot execution.
	WindowLen sim.Time
	// Windows is the number of windows N to stream.
	Windows int
	// Seed is the fleet's shared seed: per-window protocol coins and the
	// generated churn schedule both derive from it.
	Seed int64
	// Static lists operator-named membership events on the stream's
	// absolute clock (validityd's -kill in continuous mode, recorded
	// traces): departures and +host@tick joins alike.
	Static churn.Timeline
	// Source generates churn on the stream's absolute clock over the full
	// horizon [0, N·W]; nil means only Static applies.
	Source churn.Source

	once   sync.Once
	err    error
	abs    churn.Timeline
	ix     *churn.Index
	slices []churn.Timeline
}

// Validate normalizes defaults and rejects inconsistent plans.
func (p *Plan) Validate() error {
	if p.Query < 1 || int64(p.Query) >= 1<<32 {
		return fmt.Errorf("stream: continuous query id %d outside [1, 2³²)", p.Query)
	}
	if p.Windows < 1 {
		return fmt.Errorf("stream: need at least one window")
	}
	if p.Spec.DHat < 1 {
		return fmt.Errorf("stream: D̂ must be ≥ 1")
	}
	if p.WindowLen == 0 {
		p.WindowLen = p.Spec.Deadline()
	}
	if p.WindowLen < p.Spec.Deadline() {
		return fmt.Errorf("stream: window %d shorter than 2·D̂ = %d (§4.2 bound)",
			p.WindowLen, p.Spec.Deadline())
	}
	for _, f := range p.Static {
		if f.H == p.Spec.Hq {
			return fmt.Errorf("stream: monitoring host %d scheduled to %s at %d; it must outlive the whole run", f.H, f.Kind, f.T)
		}
	}
	return nil
}

// init derives the absolute schedule and its window slices exactly once;
// Factory contention on first contact blocks on the once, not on a lock
// held across schedule generation.
func (p *Plan) init() error {
	p.once.Do(func() {
		if p.err = p.Validate(); p.err != nil {
			return
		}
		// The stream's one absolute schedule: explicit departures plus the
		// generated model over the whole horizon, derived from seed + base
		// query id alone — every process regenerates it bit-identically.
		abs := churn.Static(p.Static).Schedule(0, p.Spec.Hq, p.Horizon())
		if p.Source != nil {
			abs = churn.Merge(abs, p.Source.Schedule(
				churn.QuerySeed(p.Seed, int64(p.Query)), p.Spec.Hq, p.Horizon()))
		}
		p.abs = abs
		p.ix = abs.Index()
		p.slices = Slice(abs, p.WindowLen, p.Windows)
	})
	return p.err
}

// Horizon is the stream's total length N·W in ticks.
func (p *Plan) Horizon() sim.Time { return p.WindowLen * sim.Time(p.Windows) }

// WindowStart returns window k's opening tick on the stream clock.
func (p *Plan) WindowStart(k int) sim.Time { return sim.Time(k) * p.WindowLen }

// WindowEnd returns window k's closing tick on the stream clock.
func (p *Plan) WindowEnd(k int) sim.Time { return sim.Time(k+1) * p.WindowLen }

// Schedule returns the stream's absolute membership timeline.
func (p *Plan) Schedule() (churn.Timeline, error) {
	if err := p.init(); err != nil {
		return nil, err
	}
	return p.abs, nil
}

// WindowSchedule derives window k's membership timeline in ticks of the
// window sub-query's own clock: hosts absent when the window opens —
// departed earlier, or late joiners still to arrive — enter dead at tick
// 0, and the window's own slice of the absolute timeline applies at
// re-based ticks (so a host rejoining mid-window enters dead and comes
// alive at its re-based join tick).
func (p *Plan) WindowSchedule(k int) (churn.Timeline, error) {
	if err := p.init(); err != nil {
		return nil, err
	}
	if k < 0 || k >= p.Windows {
		return nil, fmt.Errorf("stream: window %d outside the %d-window stream", k, p.Windows)
	}
	start := p.WindowStart(k)
	// Carryover: every host the timeline mentions that is not a member
	// just before the window opens enters it dead at tick 0 — the
	// engine's was-never-a-member convention. "Just before" keeps the
	// boundary rule: an event at exactly k·w is window k's own slice
	// entry (re-based to 0), so it must not also be carried over. For
	// window 0 the opening state is initial membership itself. Emission
	// follows the timeline's event order, keeping the derivation
	// byte-identical across processes.
	var out churn.Timeline
	seen := make(map[graph.HostID]bool)
	for _, e := range p.abs {
		if seen[e.H] {
			continue
		}
		seen[e.H] = true
		present := p.ix.InitialMember(e.H)
		if start > 0 {
			present = p.ix.AliveAt(e.H, start-1)
		}
		if !present {
			out = append(out, churn.Event{H: e.H, T: 0})
		}
	}
	return churn.Merge(out, p.slices[k]), nil
}

// WindowInstance materializes window k's engine query on rt: the standard
// BuildInstance path with the window's own derived seed plus its sliced
// membership timeline — byte-identical on every process of the fleet.
func (p *Plan) WindowInstance(rt *node.Runtime, k int) (*node.QueryInstance, error) {
	sched, err := p.WindowSchedule(k)
	if err != nil {
		return nil, err
	}
	inst, err := node.BuildInstance(rt, protocol.NewWildfire(p.Spec), p.seed(k))
	if err != nil {
		return nil, err
	}
	inst.Churn = sched
	// Every window's issuer is the continuous query's h_q: with the
	// quiescence control plane on, worker processes announce per-window
	// silence there and the per-window reads inherit the fast path.
	inst.Origin = p.Spec.Hq
	return inst, nil
}

// Factory returns the node.QueryFactory serving this plan's window family
// — the only registration a worker process needs for a continuous query
// to materialize window by window on first contact. Callers that also
// serve one-shot queries dispatch on SplitWindowID themselves and fall
// through to their own factory for ordinary ids.
func (p *Plan) Factory(rt *node.Runtime) node.QueryFactory {
	return func(id node.QueryID) (*node.QueryInstance, error) {
		q, k, ok := SplitWindowID(id)
		if !ok || q != p.Query {
			return nil, fmt.Errorf("stream: query %d is not a window of continuous query %d", id, p.Query)
		}
		if k >= p.Windows {
			return nil, fmt.Errorf("stream: window %d beyond the %d-window stream", k, p.Windows)
		}
		return p.WindowInstance(rt, k)
	}
}

// Bounds computes window k's own Continuous Single-Site Validity bounds:
// H_U is everyone alive when the window opens, H_C the stable component
// of h_q among hosts surviving the whole window (oracle.ComputeInterval
// on the stream's absolute schedule).
func (p *Plan) Bounds(g *graph.Graph, values []int64, k int) (oracle.Bounds, error) {
	if err := p.init(); err != nil {
		return oracle.Bounds{}, err
	}
	return oracle.ComputeInterval(g, values, p.Spec.Hq, p.ix,
		p.WindowStart(k), p.WindowEnd(k), p.Spec.Kind), nil
}

// seed is what window k's hosts draw their coins from, on the engine and
// in RunSim alike.
func (p *Plan) seed(k int) int64 { return node.QuerySeed(p.Seed, WindowID(p.Query, k)) }

// judge holds v, window k's answer, against the window's own bounds: the
// exact pair, and the pair matched to its hosts' coins that Valid is
// judged by.
func (p *Plan) judge(g *graph.Graph, values []int64, k int, v float64) (Result, error) {
	b, err := p.Bounds(g, values, k)
	if err != nil {
		return Result{}, err
	}
	m := b.Matched(values, p.Spec.Params, p.seed(k))
	return Result{
		Window: k, Start: int64(p.WindowStart(k)), End: int64(p.WindowEnd(k)),
		Value: v, Lower: b.LowerValue, Upper: b.UpperValue,
		MatchedLower: m.LowerValue, MatchedUpper: m.UpperValue,
		HC: len(b.HC), HU: len(b.HU), Valid: m.Valid(v),
	}, nil
}
