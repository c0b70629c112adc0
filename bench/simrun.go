package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/wire"
	"validity/internal/zipfval"
)

// simSpec describes sim2k_churn: the deterministic event loop running
// the paper's protocols over a 2,048-host graph under §6.2 uniform
// removal, with the engine, the transports and the wire codec out of the
// picture entirely.
type simSpec struct {
	hosts  int
	remove int // churn.UniformRemoval R per run
	echo   int // reference ops run at set-up and compared after the timed phase
	// values is how many attribute-value vectors the ops rotate through.
	// What a min or max flood costs depends on where the extreme values
	// sit; with one vector per seed that luck is systematic for the whole
	// run and moved the median op by ±20% from seed to seed.
	values int
}

// simProtocols is the op cycle; op i runs simProtocols[i mod 5]. Five
// kinds, of which the two scalar WILDFIRE runs cost alike, put the median
// op inside the scalar cluster and the 90th percentile inside the
// WILDFIRE-count cluster; four kinds of one share each would leave the
// median on the gap between two clusters, where it jumps from seed to
// seed.
var simProtocols = [5]struct {
	name  string
	kind  agg.Kind
	span  spanKind
	judge bool // WILDFIRE promises Single-Site Validity; the tree protocols may undershoot H_C by design
	build func(protocol.Query) protocol.Protocol
}{
	{"wildfire-min", agg.Min, spSimRunWildfireMin, true, func(q protocol.Query) protocol.Protocol { return protocol.NewWildfire(q) }},
	{"wildfire-max", agg.Max, spSimRunWildfireMax, true, func(q protocol.Query) protocol.Protocol { return protocol.NewWildfire(q) }},
	{"wildfire-count", agg.Count, spSimRunWildfireCount, true, func(q protocol.Query) protocol.Protocol { return protocol.NewWildfire(q) }},
	{"spanningtree-count", agg.Count, spSimRunSpanningTree, false, func(q protocol.Query) protocol.Protocol { return protocol.NewSpanningTree(q) }},
	{"dag2-count", agg.Count, spSimRunDAG, false, func(q protocol.Query) protocol.Protocol { return protocol.NewDAG(q, 2) }},
}

// simEcho is what must repeat exactly when an op is run twice.
type simEcho struct {
	value float64
	msgs  int64
}

type simRun struct {
	spec   simSpec
	seed   int64
	g      *graph.Graph
	values [][]int64 // op i reads values[i mod len]
	dHat   int
	tr     *tracer

	ref []simEcho // ops 1..echo as run at set-up
	// The reference ops' deliveries sized as if serialized, and their
	// message counts, per protocol of the cycle: a timed op's traffic is
	// charged at its protocol's reference bytes per message.
	refWireBytes, refMsgs [len(simProtocols)]int64

	mu          sync.Mutex
	ops         int64
	msgs        [len(simProtocols)]int64
	delivered   int64
	maxHostMsgs int64
	timeCost    int64
	seen        []simEcho // ops 1..echo as run in the timed phase
}

func setupSim(spec simSpec) func(seed int64, n int, tr *tracer) (runner, error) {
	return func(seed int64, n int, tr *tracer) (runner, error) {
		s := &simRun{spec: spec, seed: seed, tr: tr, seen: make([]simEcho, spec.echo)}
		s.g = topology.Generate(topology.Random, spec.hosts, topologySeed)
		for k := 0; k < spec.values; k++ {
			s.values = append(s.values, zipfval.Default(seed+int64(k)*104729).Values(s.g.Len()))
		}
		s.dHat = s.g.Diameter(nil) + 2
		// The reference ops double as warm-up. Their deliveries are sized
		// with the wire codec here, off the clock, so the timed loop never
		// touches internal/wire.
		for i := 1; i <= spec.echo; i++ {
			k := i % len(simProtocols)
			v, st, err := s.run(i, nil, func(_ sim.Time, m sim.Message) {
				if n, err := wire.FrameSize(m.Payload); err == nil {
					s.refWireBytes[k] += int64(n)
				}
			})
			if err != nil {
				return nil, fmt.Errorf("reference op %d: %w", i, err)
			}
			s.refMsgs[k] += st.MessagesSent
			s.ref = append(s.ref, simEcho{v, st.MessagesSent})
		}
		return s, nil
	}
}

func (s *simRun) query(i int) protocol.Query {
	return protocol.Query{
		Kind:   simProtocols[i%len(simProtocols)].kind,
		Hq:     0,
		DHat:   s.dHat,
		Params: agg.Params{Vectors: fmVectors, Bits: 32},
	}
}

// opSeed gives every op its own stream of the workload seed.
func (s *simRun) opSeed(i int) int64 { return s.seed + int64(i)*7919 }

func (s *simRun) schedule(i int) churn.Timeline {
	q := s.query(i)
	return churn.UniformRemoval(s.g.Len(), s.spec.remove, q.Hq, 0, q.Deadline(),
		rand.New(rand.NewSource(s.opSeed(i))))
}

// run executes op i from scratch: a fresh network, that op's churn, the
// protocol installed and run to its deadline.
func (s *simRun) run(i int, op *opTrace, onDeliver func(sim.Time, sim.Message)) (float64, *sim.Stats, error) {
	pr, q := simProtocols[i%len(simProtocols)], s.query(i)
	t := s.tr
	if op == nil {
		t = nil // reference ops are not part of the traced phase
	}
	at := t.begin()
	nw := sim.NewNetwork(sim.Config{Graph: s.g, Seed: s.opSeed(i), Values: s.values[i%len(s.values)]})
	t.done(spSimNewNetwork, at, op)
	nw.OnDeliver = onDeliver

	at = t.begin()
	s.schedule(i).Apply(nw)
	t.done(spSimApplyChurn, at, op)

	p := pr.build(q)
	at = t.begin()
	err := p.Install(nw)
	t.done(spInstall, at, op)
	if err != nil {
		return 0, nil, err
	}
	if op != nil {
		hs := make([]sim.Handler, s.g.Len())
		for h := range hs {
			hs[h] = nw.Handler(graph.HostID(h))
		}
		t.wrapHandlers(op, hs)
		for h, hd := range hs {
			nw.SetHandler(graph.HostID(h), hd)
		}
	}
	at = t.begin()
	st := nw.Run(p.Deadline())
	t.done(pr.span, at, op)
	v, ok := p.Result()
	if !ok {
		return 0, st, fmt.Errorf("%s declared no result", pr.name)
	}
	return v, st, nil
}

func (s *simRun) timed(n int, stop time.Time) []opOutcome {
	return closedLoop(1, n, stop, func(i int) opOutcome {
		op := s.tr.newOp(int64(i), i)
		start := time.Now()
		s.tr.issue(op)
		v, st, err := s.run(i, op, nil)
		out := opOutcome{latency: time.Since(start), value: v}
		s.tr.finish(op)
		if err != nil {
			out.failure, out.err = "error", err
		}
		if st != nil {
			s.mu.Lock()
			s.ops++
			s.msgs[i%len(simProtocols)] += st.MessagesSent
			s.delivered += st.MessagesDelivered
			s.maxHostMsgs += st.MaxComputation()
			s.timeCost += int64(st.TimeCost)
			if i <= len(s.seen) {
				s.seen[i-1] = simEcho{v, st.MessagesSent}
			}
			s.mu.Unlock()
		}
		return out
	})
}

func (s *simRun) judge(outs []opOutcome) {
	for i := range outs {
		o := &outs[i]
		if pr := simProtocols[o.index%len(simProtocols)]; o.failure != "" || !pr.judge {
			continue
		}
		q := s.query(o.index)
		at := s.tr.begin()
		b := oracle.Compute(s.g, s.values[o.index%len(s.values)], q.Hq, s.schedule(o.index), q.Deadline(), q.Kind)
		s.tr.done(spOracle, at, nil)
		if !b.ValidFactor(o.value, oracle.FMSlack(q.Kind, fmVectors)) {
			o.failure = unsound
		}
	}
}

// costs charges simulated traffic at the reference ops' serialized bytes
// per message: the simulator has no wire, but §6.3's byte cost is still
// what a wire-format change would move.
func (s *simRun) costs() (msgs, wireBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, n := range s.msgs {
		msgs += n
		if s.refMsgs[k] > 0 {
			wireBytes += n * s.refWireBytes[k] / s.refMsgs[k]
		}
	}
	return msgs, wireBytes
}

// verify requires the timed phase's first ops to repeat the reference
// ops exactly: same declared value, same message count.
func (s *simRun) verify() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bad []string
	for i, ref := range s.ref {
		if int64(i) >= s.ops {
			break
		}
		if got := s.seen[i]; got != ref {
			bad = append(bad, fmt.Sprintf("sim op %d ran twice: value %v msgs %d, then value %v msgs %d",
				i+1, ref.value, ref.msgs, got.value, got.msgs))
		}
	}
	return bad
}

func (s *simRun) layer() layerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := layerStats{delivered: s.delivered}
	if s.ops > 0 {
		ls.maxHostMsgs = float64(s.maxHostMsgs) / float64(s.ops)
		ls.timeCost = float64(s.timeCost) / float64(s.ops)
	}
	return ls
}

func (s *simRun) close() {}
