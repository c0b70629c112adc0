package main

import (
	"time"

	"validity/internal/agg"
	"validity/internal/graph"
)

// workload is one set of inputs the benchmark runs. Every workload issues
// a fixed number of ops — rate × the run length asked for — never "as
// many as fit": the same seed and run length issue the same query ids,
// hence the same FM coins and churn timelines, run after run. rate is
// what the reference 2-core box sustains, so a run of -seconds S measures
// for about S seconds there; a wall-clock cap (see main) stops a slower
// box from overrunning.
type workload struct {
	name string
	why  string
	rate float64 // timed ops per second of run length
	// cycle is the number of consecutive ops after which the kinds of op
	// repeat; the timed phase is cut into segments of whole cycles.
	cycle int
	// hosts and hop size the tracer; static workloads have no per-query
	// deaths, which is what makes queue-wait and deliver-lag matching exact.
	hosts  int
	hop    time.Duration
	static bool
	// unlisted keeps a workload out of BENCHMARK.json: `go run ./bench`
	// runs it with the others, the benchmark driver does not.
	unlisted bool
	setup    func(seed int64, n int, tr *tracer) (runner, error)
}

// ops is the timed-phase op count for a run length in seconds.
func (w *workload) ops(seconds int) int {
	n := int(w.rate * float64(seconds))
	if n < 4 {
		n = 4
	}
	return n
}

// tracedOps is the op count of the traced run: a quarter, because every
// traced run measures the workload twice (untraced, then traced).
func (w *workload) tracedOps(seconds int) int {
	n := w.ops(seconds) / 4
	if n < 4 {
		n = 4
	}
	return n
}

var fleet60 = fleetSpec{
	hosts:   60,
	hop:     5 * time.Millisecond,
	dHat:    12, // the repository's customary 60-host setting (diameter is 5)
	parts:   1,
	aggs:    []agg.Kind{agg.Count, agg.Min},
	hqs:     []graph.HostID{0, 7},
	clients: 2,
	warm:    8,
}

func with(base fleetSpec, edit func(*fleetSpec)) fleetSpec {
	edit(&base)
	return base
}

// engineWorkload is a workload over an engine fleet; what the tracer needs
// to know follows from the fleet's spec.
func engineWorkload(name, why string, rate float64, spec fleetSpec,
	setup func(fleetSpec) func(int64, int, *tracer) (runner, error)) *workload {
	return &workload{name: name, why: why, rate: rate, cycle: lcm(len(spec.aggs), len(spec.hqs)),
		hosts: spec.hosts, hop: spec.hop, static: spec.churn == "", setup: setup(spec)}
}

func lcm(a, b int) int {
	g, r := a, b
	for r != 0 {
		g, r = r, g%r
	}
	return a / g * b
}

var workloads = []*workload{
	engineWorkload("chan60_churn",
		"60-host chan fleet, one-shot count/min under leave+join churn: the shipped default; latency is floor+settle-bound, churn index and timer heap do real work",
		26, with(fleet60, func(s *fleetSpec) {
			s.churn = "model=sessions,mean=60,join=20"
		}), setupOneShot),
	engineWorkload("tcp60_static",
		"same graph split over three runtimes on loopback TCP, static: wire codec, write coalescing and the quiescence plane carry it; chan delivery and churn are bypassed",
		22, with(fleet60, func(s *fleetSpec) {
			s.parts = 3
		}), setupOneShot),
	engineWorkload("chan2k_count",
		"2,048-host chan fleet, count at delta=80ms, static: the CPU-heavy engine regime; per-frame cost, per-host instantiation and heap footprint dominate",
		0.7, fleetSpec{
			hosts: 2048,
			// 80 ms is the smallest δ measured steady on two cores: every
			// answer valid, 145–150K messages and a floor-bound 1.40–1.45 s
			// per query, run after run. At 40 and 60 ms answers are still
			// valid but some hops run late and refloods inflate a query to
			// anywhere in 150–310K messages and 0.9–1.7 s, too chaotic to
			// hold any bound; at 10 ms the regime returns COUNT≈540 for
			// 2,048 live hosts.
			hop:     80 * time.Millisecond,
			dHat:    12, // diameter is 10
			parts:   1,
			aggs:    []agg.Kind{agg.Count},
			hqs:     []graph.HostID{0},
			clients: 1,
			warm:    2,
		}, setupOneShot),
	engineWorkload("stream60_churn",
		"one continuous count query, windows of 2*Dhat opened on schedule under churn on the stream clock: open loop, latency from due time; guards the continuous-query path",
		8.3, // by construction: one window per W·δ = 120 ms
		with(fleet60, func(s *fleetSpec) {
			s.aggs = []agg.Kind{agg.Count}
			s.hqs = []graph.HostID{0}
			s.churn = "model=sessions,mean=600,join=200"
			s.warm = 4
		}), setupStream),
	{
		name:  "sim2k_churn",
		why:   "deterministic event loop, 2,048 hosts, wildfire count/min/max, spanningtree and dag under uniform removal: delta-free and CPU-bound, engine and transports bypassed, counts repeat exactly",
		rate:  22,
		cycle: len(simProtocols),
		hosts: 2048,
		// Every timing of this workload is CPU time of one thread, which
		// this shared host bills 1.0× or 1.5–1.8× depending on what its
		// neighbours do, for stretches longer than any run the driver's
		// time limit allows (README.md): ten runs spread 25–50%, wider
		// than any bound worth holding. It stays in the program for what
		// does repeat here, exactly: its counts.
		unlisted: true,
		setup:    setupSim(simSpec{hosts: 2048, remove: 100, echo: 10, values: 8}),
	},
}

// listed is the workloads BENCHMARK.json names, in its order.
func listed() []*workload {
	var out []*workload
	for _, w := range workloads {
		if !w.unlisted {
			out = append(out, w)
		}
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
