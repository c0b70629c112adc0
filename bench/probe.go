package main

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/fm"
	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/stream"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/wire"
	"validity/internal/zipfval"
)

// Probes are tight loops over a layer's public functions, on inputs drawn
// from the workload seed. They give every layer a cost that does not
// depend on δ or on which workload the traced run happened to be, so a
// per-layer change has a number to move even when the end-to-end figure
// it feeds is floor-bound.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink struct {
	b   bool
	f   float64
	n   int
	any any
}

// loop times iters calls of fn and returns ns, heap allocations and heap
// bytes per call.
func loop(iters int, fn func()) (ns, allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n,
		float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n
}

func runProbes(seed int64) map[string]float64 {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	params := agg.Params{Vectors: fmVectors, Bits: 32}
	const us, ms = 1e3, 1e6

	// fm: two 1,000-element sketches at the benchmark's sizing.
	a := fm.CountSet(1000, fmVectors, 32, rng)
	b := fm.CountSet(1000, fmVectors, 32, rng)
	same := a.Clone()
	union := a.Clone()
	union.Or(b)
	out["fm.or_ns"], _, _ = loop(200000, func() { a.Or(b) })
	out["fm.clone_ns"], _, out["fm.clone_bytes"] = loop(100000, func() { sink.any = a.Clone() })
	out["fm.equal_ns"], _, _ = loop(200000, func() { sink.b = a.Equal(same) })
	out["fm.covers_ns"], _, _ = loop(200000, func() { sink.b = union.Covers(b) })
	out["fm.estimate_ns"], _, _ = loop(100000, func() { sink.f = a.Estimate() })
	out["fm.countset_ns"], _, _ = loop(2000, func() { sink.any = fm.CountSet(64, fmVectors, 32, rng) })

	// agg: the partials WILDFIRE holds per host.
	pa := agg.NewPartial(agg.Count, 1, params, rng)
	pb := agg.NewPartial(agg.Count, 1, params, rng)
	ma := agg.NewPartial(agg.Min, 40, params, rng)
	mb := agg.NewPartial(agg.Min, 17, params, rng)
	out["agg.new_partial_ns"], _, _ = loop(50000, func() { sink.any = agg.NewPartial(agg.Count, 1, params, rng) })
	out["agg.combine_ns"], _, _ = loop(200000, func() { sink.b = pa.Combine(pb) })
	out["agg.clone_ns"], _, _ = loop(100000, func() { sink.any = pa.Clone() })
	out["agg.combine_min_ns"], _, _ = loop(500000, func() { sink.b = ma.Combine(mb) })

	// wire: a real WILDFIRE frame, taken off a small simulated run (the
	// message types are unexported; the simulator hands payloads out).
	count, min := wildfirePayload(seed, agg.Count), wildfirePayload(seed, agg.Min)
	frame := wire.Frame{From: 3, To: 4, Query: 17, Chain: 5, Payload: count}
	buf, err := wire.AppendFrame(make([]byte, 0, 2048), frame)
	if err == nil {
		body := buf[4:]
		out["wire.encode_ns"], _, _ = loop(200000, func() { buf, _ = wire.AppendFrame(buf[:0], frame) })
		out["wire.decode_ns"], out["wire.decode_allocs"], _ = loop(100000, func() { f, _ := wire.DecodeFrameBody(body); sink.any = f.Payload })
		out["wire.framesize_ns"], _, _ = loop(200000, func() { sink.n, _ = wire.FrameSize(count) })
		out["wire.frame_bytes_count"] = float64(len(buf))
		if n, err := wire.FrameSize(min); err == nil {
			out["wire.frame_bytes_min"] = float64(n)
		}
	}

	// topology and graph at the scale workloads' size; reused below.
	var g2k *graph.Graph
	ns, _, _ := loop(3, func() { g2k = topology.Generate(topology.Random, 2048, seed) })
	out["topology.generate_ms_2k"] = ns / ms
	ns, _, _ = loop(1, func() { sink.n = g2k.Diameter(nil) })
	out["graph.diameter_ms_2k"] = ns / ms
	g60 := topology.Generate(topology.Random, 60, seed)
	v60, v2k := zipfval.Default(seed).Values(60), zipfval.Default(seed).Values(2048)

	// churn: the two generators the workloads use, the index every hot
	// path probes membership through, and one probe of it.
	sessions := churn.Sessions{N: 60, Mean: 60, Rejoin: 20}
	var tl60, tl2k churn.Timeline
	ns, _, _ = loop(2000, func() { tl60 = sessions.Schedule(seed, 0, 16) })
	out["churn.sessions_schedule_us"] = ns / us
	ns, _, _ = loop(200, func() { tl2k = churn.UniformRemoval(2048, 100, 0, 0, 24, rng) })
	out["churn.uniform_schedule_us"] = ns / us
	var ix *churn.Index
	ns, _, _ = loop(2000, func() { ix = tl2k.Index() })
	out["churn.index_build_us"] = ns / us
	probed := tl2k[len(tl2k)/2].H
	out["churn.alive_at_ns"], _, _ = loop(500000, func() { sink.b = ix.AliveAt(probed, 12) })

	// oracle: what judging one answer costs at each scale.
	ns, _, _ = loop(2000, func() { sink.any = oracle.Compute(g60, v60, 0, tl60, 16, agg.Count) })
	out["oracle.compute_us_60"] = ns / us
	ns, _, _ = loop(50, func() { sink.any = oracle.Compute(g2k, v2k, 0, tl2k, 24, agg.Count) })
	out["oracle.compute_us_2k"] = ns / us

	// stream: slicing the absolute timeline and judging one window.
	plan := &stream.Plan{
		Query:   1,
		Spec:    protocol.Query{Kind: agg.Count, Hq: 0, DHat: 8, Params: params},
		Windows: 32,
		Seed:    seed,
		Source:  churn.Sessions{N: 60, Mean: 600, Rejoin: 200},
	}
	if abs, err := plan.Schedule(); err == nil {
		ns, _, _ = loop(2000, func() { sink.any = stream.Slice(abs, plan.WindowLen, plan.Windows) })
		out["stream.slice_us"] = ns / us
		k := 0
		ns, _, _ = loop(2000, func() { sink.any, _ = plan.Bounds(g60, v60, k%plan.Windows); k++ })
		out["stream.bounds_us"] = ns / us
		absIx := abs.Index()
		ns, _, _ = loop(2000, func() { sink.any = oracle.ComputeInterval(g60, v60, 0, absIx, 64, 80, agg.Count) })
		out["oracle.interval_us_60"] = ns / us
	}

	// obs: the per-frame instrumentation the engine hot path pays (two
	// counter adds and a histogram observation), on a real registry and on
	// the nil-disabled form; one trace event; one typed snapshot.
	out["obs.frame_ns_instrumented"] = obsFrameNs(obs.NewRegistry())
	out["obs.frame_ns_nil"] = obsFrameNs(nil)
	tracer := obs.NewTracer(0, 0)
	q := int64(0)
	out["obs.trace_record_ns"], _, _ = loop(200000, func() { tracer.Record(q%64, obs.EvIssued, -1, q, ""); q++ })
	reg := obs.NewRegistry()
	obs.RegisterRuntimeHealth(reg)
	for i := 0; i < 24; i++ {
		reg.Counter("probe_counter_total", "", "series="+string(rune('a'+i))).Inc()
	}
	reg.Histogram("probe_latency_ms", "", obs.LatencyBucketsMs).Observe(3)
	ns, _, _ = loop(200, func() { sink.any = reg.Snapshot() })
	out["obs.snapshot_us"] = ns / us

	// transport: what each substrate moves with no engine on top.
	out["transport.chan_frames_per_s"] = chanFramesPerSec(count)
	out["transport.tcp_frames_per_s"], out["transport.tcp_bytes_per_frame"] = tcpFramesPerSec(count)
	return out
}

// wildfirePayload runs WILDFIRE for one aggregate on a 16-host graph
// under the event loop and returns the first partial-carrying broadcast
// it delivers — a real protocol message at the benchmark's sketch sizing.
func wildfirePayload(seed int64, kind agg.Kind) any {
	g := topology.Generate(topology.Random, 16, seed)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: seed, Values: zipfval.Default(seed).Values(16)})
	var payload any
	nw.OnDeliver = func(_ sim.Time, m sim.Message) {
		if payload == nil {
			payload = m.Payload
		}
	}
	q := protocol.Query{Kind: kind, Hq: 0, DHat: 6, Params: agg.Params{Vectors: fmVectors, Bits: 32}}
	if _, _, err := protocol.Run(protocol.NewWildfire(q), nw); err != nil {
		return nil
	}
	return payload
}

func obsFrameNs(reg *obs.Registry) float64 {
	frames := reg.Counter("probe_frames_total", "")
	bytes := reg.Counter("probe_bytes_total", "")
	lat := reg.Histogram("probe_lat_ms", "", obs.LatencyBucketsMs)
	i := 0
	ns, _, _ := loop(1000000, func() {
		frames.Inc()
		bytes.Add(int64(i & 0xff))
		lat.Observe(float64(i % 1000))
		i++
	})
	return ns
}

// blast sends n frames from host 0 to host 1 and returns frames per
// second once all of them were delivered (0 if they never are).
func blast(send func(transport.Message) error, delivered *atomic.Int64, payload any, n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := send(transport.Message{From: 0, To: 1, Query: 1, Chain: 1, Payload: payload}); err != nil {
			return 0
		}
	}
	for deadline := start.Add(10 * time.Second); delivered.Load() < int64(n); {
		if time.Now().After(deadline) {
			return 0
		}
		time.Sleep(200 * time.Microsecond)
	}
	return float64(n) / time.Since(start).Seconds()
}

func chanFramesPerSec(payload any) float64 {
	c := transport.NewChannel(2, 0)
	defer c.Close()
	var delivered atomic.Int64
	if c.Bind(1, func(transport.Message) { delivered.Add(1) }) != nil || c.Open() != nil {
		return 0
	}
	return blast(c.Send, &delivered, payload, 200000)
}

func tcpFramesPerSec(payload any) (framesPerSec, bytesPerFrame float64) {
	addrs, err := loopbackAddrs(2)
	if err != nil {
		return 0, 0
	}
	from, to := transport.NewTCP(addrs), transport.NewTCP(addrs)
	defer from.Close()
	defer to.Close()
	var delivered atomic.Int64
	if from.Bind(0, func(transport.Message) {}) != nil ||
		to.Bind(1, func(transport.Message) { delivered.Add(1) }) != nil ||
		to.Open() != nil || from.Open() != nil {
		return 0, 0
	}
	size, err := wire.FrameSize(payload)
	if err != nil {
		return 0, 0
	}
	return blast(from.Send, &delivered, payload, 50000), float64(size)
}
