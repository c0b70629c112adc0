package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/node"
	"validity/internal/obs"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/stream"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/zipfval"
)

// fmVectors is the FM repetition count every sketch-backed query of the
// benchmark runs with — validityd's default, and the c the probes use.
const fmVectors = 64

// topologySeed draws every workload's graph. The topology is part of the
// system under test, like δ and D̂: every run measures the same fleet,
// and -seed drives what differs from request to request — attribute
// values, churn timelines, FM coins. (A 60-host random graph redrawn per
// seed moves msgs_per_op by ±10% on its own, which would drown any bound
// tight enough to be worth holding.)
const topologySeed = 23

// fleetSpec describes an engine fleet the way validityd's flags do.
type fleetSpec struct {
	hosts int
	hop   time.Duration // δ
	// dHat is D̂; set-up refuses a value below diameter+2.
	dHat int
	// parts is the number of node.Runtimes the hosts are split over:
	// 1 runs everything on transport.Channel, more runs each part on its
	// own transport.TCP over loopback with the quiescence plane on.
	parts   int
	aggs    []agg.Kind     // query i uses aggs[i mod len]
	hqs     []graph.HostID // query i is issued at hqs[i mod len]; all in part 0
	churn   string         // churn.ParseSource grammar; "" = static membership
	clients int            // closed-loop clients issuing one-shot queries
	warm    int            // warm-up ops run during set-up
}

// fleet is the engine composed exactly as internal/daemon.Run composes it
// — topology, values, transport, node.New with its own registry and
// tracer, a BuildInstance query factory, Start — minus the flag parsing
// and the op loop, which the bench owns.
type fleet struct {
	spec   fleetSpec
	seed   int64
	g      *graph.Graph
	values []int64
	dHat   int
	src    churn.Source
	rts    []*node.Runtime // rts[0] issues
	regs   []*obs.Registry
	tr     *tracer
	plans  map[node.QueryID]*stream.Plan // continuous queries, by base id

	streamStart atomic.Int64 // tracer ns at stream.Start, for open jitter

	mu          sync.Mutex // traced runs: per-op §6.3 maxima
	maxHostMsgs int64
	timeCost    int64
	statOps     int64
	instHosts   atomic.Int64
}

func newFleet(spec fleetSpec, seed int64, plans map[node.QueryID]*stream.Plan, tr *tracer) (*fleet, error) {
	f := &fleet{spec: spec, seed: seed, tr: tr, plans: plans}
	f.g = topology.Generate(topology.Random, spec.hosts, topologySeed)
	n := f.g.Len()
	f.values = zipfval.Default(seed).Values(n)
	f.dHat = spec.dHat
	if d := f.g.Diameter(nil); d+2 > f.dHat {
		return nil, fmt.Errorf("D̂=%d is below diameter+2 = %d", f.dHat, d+2)
	}
	for _, p := range plans {
		p.Spec = f.specFor(1)
	}
	var err error
	if f.src, err = churn.ParseSource(spec.churn, n); err != nil {
		return nil, err
	}

	var addrs []string // host → address, TCP only
	var roster []int   // host → part, TCP only
	part := func(h int) int { return h * spec.parts / n }
	if spec.parts > 1 {
		ports, err := loopbackAddrs(spec.parts)
		if err != nil {
			return nil, err
		}
		addrs, roster = make([]string, n), make([]int, n)
		for h := 0; h < n; h++ {
			addrs[h], roster[h] = ports[part(h)], part(h)
		}
	}
	for p := 0; p < spec.parts; p++ {
		reg := obs.NewRegistry()
		var tp transport.Transport
		var local []graph.HostID
		if spec.parts == 1 {
			// Delivery at δ/2, the processing headroom validityd leaves.
			tp = transport.NewChannel(n, spec.hop/2)
		} else {
			tcp := transport.NewTCP(addrs)
			tcp.Obs = reg
			tp = tcp
			for h := 0; h < n; h++ {
				if part(h) == p {
					local = append(local, graph.HostID(h))
				}
			}
		}
		if tr != nil {
			tp = &tracedTransport{Transport: tp, t: tr}
		}
		rt, err := node.New(node.Config{
			Graph:     f.g,
			Values:    f.values,
			Transport: tp,
			Hop:       spec.hop,
			Local:     local,
			Quiesce:   spec.parts > 1,
			Roster:    roster,
			Obs:       reg,
			Trace:     obs.NewTracer(0, 0),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		rt.SetQueryFactory(f.factory(rt))
		f.rts, f.regs = append(f.rts, rt), append(f.regs, reg)
	}
	// Workers first, the issuer last, the order a real fleet boots in.
	for p := len(f.rts) - 1; p >= 0; p-- {
		if err := f.rts[p].Start(); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// loopbackAddrs asks the kernel for k free loopback ports by listening on
// port 0, then releases them for the transports to bind.
func loopbackAddrs(k int) ([]string, error) {
	addrs := make([]string, k)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		defer l.Close()
	}
	return addrs, nil
}

// specFor derives query id's spec from the id alone, as every process of
// a validityd fleet does from its shared flags.
func (f *fleet) specFor(id node.QueryID) protocol.Query {
	i := int(id - 1)
	return protocol.Query{
		Kind:   f.spec.aggs[i%len(f.spec.aggs)],
		Hq:     f.spec.hqs[i%len(f.spec.hqs)],
		DHat:   f.dHat,
		Params: agg.Params{Vectors: fmVectors, Bits: 32},
	}
}

// churnFor regenerates query id's own membership timeline; the factory on
// every runtime and the judge call it with the same arguments.
func (f *fleet) churnFor(id node.QueryID, spec protocol.Query) churn.Timeline {
	if f.src == nil {
		return nil
	}
	return f.src.Schedule(churn.QuerySeed(f.seed, int64(id)), spec.Hq, spec.Deadline())
}

func (f *fleet) factory(rt *node.Runtime) node.QueryFactory {
	return func(id node.QueryID) (*node.QueryInstance, error) {
		op := f.tr.op(int64(id))
		f.tr.issue(op)
		start := f.tr.begin()
		var inst *node.QueryInstance
		var err error
		if q, k, isWindow := stream.SplitWindowID(id); isWindow {
			p := f.plans[q]
			if p == nil {
				return nil, fmt.Errorf("bench: window of unknown continuous query %d", q)
			}
			if op != nil {
				due := f.streamStart.Load() + int64(time.Duration(p.WindowStart(k))*f.spec.hop)
				f.tr.aggs[spOpenJitter].observe(0, start-due)
			}
			inst, err = p.WindowInstance(rt, k)
		} else {
			spec := f.specFor(id)
			inst, err = node.BuildInstance(rt, protocol.NewWildfire(spec), node.QuerySeed(f.seed, id))
			if err == nil {
				inst.Churn = f.churnFor(id, spec)
				inst.Origin = spec.Hq
			}
		}
		if err != nil {
			return nil, err
		}
		if op != nil {
			f.tr.done(spInstantiate, start, op)
			f.instHosts.Add(int64(f.tr.wrapHandlers(op, inst.Handlers)))
		}
		return inst, nil
	}
}

// oneShot issues query id and reads its answer the way the daemon's query
// stream does. index > 0 marks an op of the timed phase.
func (f *fleet) oneShot(id node.QueryID, index int) opOutcome {
	rt, spec := f.rts[0], f.specFor(id)
	var op *opTrace
	if index > 0 {
		op = f.tr.newOp(int64(id), index)
	}
	start := time.Now()
	f.tr.issue(op)
	s := f.tr.begin()
	_, err := rt.StartQuery(id)
	f.tr.done(spStartQuery, s, op)
	if err != nil {
		if errors.Is(err, node.ErrQueryRejected) {
			return opOutcome{failure: "rejected", err: err}
		}
		return opOutcome{failure: "error", err: err}
	}
	floor, settle, hardCap := rt.AwaitBracket(spec.Deadline())
	s = f.tr.begin()
	v, ok, err := rt.AwaitQueryResult(id, spec.Hq, floor, settle, hardCap)
	out := opOutcome{latency: time.Since(start), value: v}
	f.tr.done(spAwait, s, op)
	f.tr.finish(op)
	switch {
	case err != nil:
		out.failure, out.err = "error", err
	case !ok:
		out.failure = "no result"
	}
	if op != nil {
		f.notePerQueryStats(id)
	}
	return out
}

// notePerQueryStats folds one op's computation and time cost (§6.3: the
// maximum over hosts, hence over runtimes) into the traced run's means.
func (f *fleet) notePerQueryStats(id node.QueryID) {
	var maxHost int64
	var chain int
	for _, rt := range f.rts {
		if st, ok := rt.QueryStats(id); ok {
			if c := st.MaxComputation(); c > maxHost {
				maxHost = c
			}
			if st.TimeCost > chain {
				chain = st.TimeCost
			}
		}
	}
	f.mu.Lock()
	f.maxHostMsgs += maxHost
	f.timeCost += int64(chain)
	f.statOps++
	f.mu.Unlock()
}

func (f *fleet) warmUp() error {
	outs := closedLoop(f.spec.clients, f.spec.warm, time.Now().Add(time.Minute), func(i int) opOutcome {
		return f.oneShot(node.QueryID(i), 0)
	})
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("warm-up query %d: %w", o.index, o.err)
		}
	}
	return nil
}

// registryTotals reads the runtimes' own §6.3 counters — the numbers
// /metrics serves.
func (f *fleet) registryTotals() (msgs, wireBytes int64) {
	for _, reg := range f.regs {
		msgs += reg.Counter("node_messages_sent_total", "").Value()
		wireBytes += reg.Counter("node_bytes_sent_total", "").Value()
	}
	return msgs, wireBytes
}

func (f *fleet) statsTotals() (msgs, wireBytes int64) {
	for _, rt := range f.rts {
		st := rt.Stats()
		msgs += st.MessagesSent
		wireBytes += st.BytesOnWire
	}
	return msgs, wireBytes
}

func (f *fleet) costs() (int64, int64) {
	// Stragglers of answered queries may still be in flight; wait until
	// the send counters hold still over four hops (bounded).
	last, _ := f.registryTotals()
	for i := 0; i < 50; i++ {
		time.Sleep(4 * f.spec.hop)
		now, _ := f.registryTotals()
		if now == last {
			break
		}
		last = now
	}
	return f.statsTotals()
}

// verify is the one-measurement-path check: the harness's summed
// Stats.MessagesSent/BytesOnWire must equal the registry counters.
func (f *fleet) verify() []string {
	var sm, sb, rm, rb int64
	for try := 0; try < 3; try++ { // a straggler between the two reads is not a mismatch
		rm0, _ := f.registryTotals()
		sm, sb = f.statsTotals()
		rm, rb = f.registryTotals()
		if rm0 == rm {
			break
		}
	}
	var bad []string
	if sm != rm {
		bad = append(bad, fmt.Sprintf("Stats.MessagesSent=%d but node_messages_sent_total=%d", sm, rm))
	}
	if sb != rb {
		bad = append(bad, fmt.Sprintf("Stats.BytesOnWire=%d but node_bytes_sent_total=%d", sb, rb))
	}
	return bad
}

func (f *fleet) layer() layerStats {
	ls := layerStats{instantiatedHosts: f.instHosts.Load()}
	f.mu.Lock()
	if f.statOps > 0 {
		ls.maxHostMsgs = float64(f.maxHostMsgs) / float64(f.statOps)
		ls.timeCost = float64(f.timeCost) / float64(f.statOps)
	}
	f.mu.Unlock()
	for _, rt := range f.rts {
		st := rt.Stats()
		ls.dropped += st.MessagesDropped
		ls.delivered += st.MessagesDelivered
	}
	ls.earlyReads = f.regs[0].Counter("node_early_reads_total", "").Value()
	ls.capReads = f.regs[0].Counter("node_deadline_reads_total", "").Value()
	const rounds = 200
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := f.rts[0].Do(f.spec.hqs[0], func() {}); err != nil {
			return ls
		}
	}
	ls.doRoundtripUs = float64(time.Since(start).Microseconds()) / rounds
	return ls
}

func (f *fleet) close() {
	for _, rt := range f.rts {
		rt.Stop()
	}
}

// --- one-shot workloads -----------------------------------------------------

// oneShotRun is chan60_churn, tcp60_static and chan2k_count: closed-loop
// clients issuing one-shot WILDFIRE queries over one fleet.
type oneShotRun struct{ *fleet }

func setupOneShot(spec fleetSpec) func(seed int64, n int, tr *tracer) (runner, error) {
	return func(seed int64, n int, tr *tracer) (runner, error) {
		f, err := newFleet(spec, seed, nil, tr)
		if err != nil {
			return nil, err
		}
		if err := f.warmUp(); err != nil {
			f.close()
			return nil, err
		}
		return oneShotRun{f}, nil
	}
}

func (r oneShotRun) opID(index int) node.QueryID { return node.QueryID(r.spec.warm + index) }

func (r oneShotRun) timed(n int, stop time.Time) []opOutcome {
	return closedLoop(r.spec.clients, n, stop, func(i int) opOutcome { return r.oneShot(r.opID(i), i) })
}

// judge holds every answer against the oracle bounds of its own
// membership timeline, FM slack included.
func (r oneShotRun) judge(outs []opOutcome) {
	for i := range outs {
		o := &outs[i]
		if o.failure != "" {
			continue
		}
		id := r.opID(o.index)
		spec := r.specFor(id)
		s := r.tr.begin()
		b := oracle.Compute(r.g, r.values, spec.Hq, r.churnFor(id, spec), spec.Deadline(), spec.Kind)
		r.tr.done(spOracle, s, nil)
		if !b.ValidFactor(o.value, oracle.FMSlack(spec.Kind, fmVectors)) {
			o.failure = unsound
			o.err = fmt.Errorf("query %d %s at h_q=%d answered %.2f, bounds q(H_C)=%.2f q(H_U)=%.2f",
				id, spec.Kind, spec.Hq, o.value, b.LowerValue, b.UpperValue)
		}
	}
}

// --- stream workload --------------------------------------------------------

// streamRun is stream60_churn: one §4.2 continuous query whose windows
// the engine's timer heap opens on schedule. It is an open loop — window
// k is due at k·W·δ whether or not earlier windows have been answered —
// so latency runs from the due time to the receipt of the result.
type streamRun struct {
	*fleet
	plan *stream.Plan
}

const (
	warmStream  node.QueryID = 1
	timedStream node.QueryID = 2
)

func setupStream(spec fleetSpec) func(seed int64, n int, tr *tracer) (runner, error) {
	return func(seed int64, n int, tr *tracer) (runner, error) {
		src, err := churn.ParseSource(spec.churn, spec.hosts)
		if err != nil {
			return nil, err
		}
		plans := map[node.QueryID]*stream.Plan{
			warmStream:  {Query: warmStream, Windows: spec.warm, Seed: seed, Source: src},
			timedStream: {Query: timedStream, Windows: n, Seed: seed, Source: src},
		}
		one := spec
		one.churn = "" // membership moves to the stream's clock
		f, err := newFleet(one, seed, plans, tr)
		if err != nil {
			return nil, err
		}
		warm, err := stream.Start(f.rts[0], plans[warmStream])
		if err != nil {
			f.close()
			return nil, err
		}
		for r := range warm.Results() {
			if r.Err != nil {
				f.close()
				return nil, fmt.Errorf("warm-up window %d: %w", r.Window, r.Err)
			}
		}
		return &streamRun{fleet: f, plan: plans[timedStream]}, nil
	}
}

func (r *streamRun) timed(n int, _ time.Time) []opOutcome {
	p, rt := r.plan, r.rts[0]
	outs := make([]opOutcome, n)
	for k := range outs {
		outs[k] = opOutcome{index: k + 1, failure: "not delivered"}
		r.tr.newOp(int64(stream.WindowID(p.Query, k)), k+1)
	}
	start := time.Now()
	r.streamStart.Store(r.tr.begin())
	s := r.tr.begin()
	st, err := stream.Start(rt, p)
	r.tr.done(spStreamStart, s, nil)
	if err != nil {
		for k := range outs {
			outs[k].failure, outs[k].err = "error", err
		}
		return outs
	}
	for res := range st.Results() {
		o := &outs[res.Window]
		due := start.Add(time.Duration(p.WindowStart(res.Window)) * r.spec.hop)
		o.done, o.doneCPU = time.Now(), cpuTime()
		o.latency, o.value, o.failure = o.done.Sub(due), res.Value, ""
		if res.Err != nil {
			o.failure, o.err = "error", res.Err
		}
		id := stream.WindowID(p.Query, res.Window)
		if op := r.tr.op(int64(id)); op != nil {
			r.tr.finish(op)
			r.notePerQueryStats(id)
		}
	}
	return outs
}

// judge holds every window against its own H_C/H_U on the stream's
// absolute membership timeline.
func (r *streamRun) judge(outs []opOutcome) {
	slack := oracle.FMSlack(r.plan.Spec.Kind, fmVectors)
	for i := range outs {
		o := &outs[i]
		if o.failure != "" {
			continue
		}
		s := r.tr.begin()
		b, err := r.plan.Bounds(r.g, r.values, o.index-1)
		r.tr.done(spOracle, s, nil)
		if err != nil {
			o.failure, o.err = "error", err
		} else if !b.ValidFactor(o.value, slack) {
			o.failure = unsound
			o.err = fmt.Errorf("window %d answered %.2f after %v, bounds q(H_C)=%.2f q(H_U)=%.2f",
				o.index-1, o.value, o.latency.Round(time.Millisecond), b.LowerValue, b.UpperValue)
		}
	}
}
