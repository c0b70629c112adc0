package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opOutcome is one op of the timed phase. failure names why the op does
// not count: "error", "rejected", "no result" and "not delivered" are set
// by the op itself (err keeps the detail) and mean the program did not
// answer; unsound is set by judge when an answer falls outside its own
// oracle bounds. Only ops with no failure feed latency and throughput.
type opOutcome struct {
	index   int // 1-based position in the timed phase
	latency time.Duration
	value   float64
	failure string
	err     error
	done    time.Time     // when the op completed (zero: it never did)
	doneCPU time.Duration // the process's CPU clock at that moment
}

// unsound is the failure of an op that was answered, but not within its
// own oracle bounds. It is reported apart from the ops that were not
// answered at all: whether a wall-clock hop of a query ran late, or an FM
// estimate landed in its tail, is a property of the run (valid_share
// measures it), while an error, a rejection or a missing result is the
// program failing.
const unsound = "invalid"

// layerStats is what a runner adds to the traced run beyond the tracer's
// own aggregates: §6.3 per-query maxima and registry counters.
type layerStats struct {
	maxHostMsgs, timeCost float64 // means over the timed ops
	dropped               int64
	earlyReads, capReads  int64
	instantiatedHosts     int64
	delivered             int64
	doRoundtripUs         float64
}

// runner is one set-up workload. timed owns its op loop — closed-loop
// clients for the one-shot and simulator workloads, the stream's own
// open-loop schedule for windows — and never aborts on a bad op.
type runner interface {
	// timed issues up to n ops, stops issuing at stop, and returns the
	// outcome of every op it issued.
	timed(n int, stop time.Time) []opOutcome
	// judge marks unsound answers; it runs after the clock has stopped.
	judge(outs []opOutcome)
	// costs waits for in-flight traffic to drain and returns the §6.3
	// totals (messages, wire bytes) accumulated so far.
	costs() (msgs, wireBytes int64)
	// verify cross-checks the harness's totals against a second reading
	// of the same quantity; each returned line counts as one failed op.
	verify() []string
	// layer reports the runner's share of the per-layer metrics; only the
	// traced run asks for it.
	layer() layerStats
	close()
}

// measurement is one timed phase with everything the metrics derive from.
type measurement struct {
	planned   int
	cycle     int // ops come in repeating groups of this many kinds
	start     time.Time
	outs      []opOutcome
	cpuStart  time.Duration // the process's CPU clock when the timed phase began
	mallocs   uint64
	allocated uint64
	peakHeap  float64 // bytes
	peakGor   int
	msgs      int64
	wireBytes int64
	setups    []float64
	mismatch  []string
	layer     layerStats
}

// result is one workload's report.
type result struct {
	Workload  string             `json:"workload"`
	Planned   int                `json:"ops_planned"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`  // not answered, or the harness contradicts itself
	Invalid   int                `json:"invalid"` // answered outside the op's oracle bounds
	Reasons   map[string]int     `json:"failure_reasons,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// measure sets the workload up `setups` times (the last one is kept, the
// median set-up time is reported), runs the timed phase of n ops with
// cost sampling around it, then judges and verifies off the clock.
func measure(w *workload, seed int64, n, setups int, capWall time.Duration, tr *tracer) (*measurement, error) {
	base := runtime.NumGoroutine()
	m := &measurement{planned: n, cycle: w.cycle}
	var r runner
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
			settleGoroutines(base)
		}
		start := time.Now()
		var err error
		if r, err = w.setup(seed, n, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	defer func() {
		r.close()
		settleGoroutines(base)
	}()

	msgs0, bytes0 := r.costs()
	runtime.GC() // every timed phase starts from a collected heap
	var before, after runtime.MemStats
	smp := startSampler(50 * time.Millisecond)
	runtime.ReadMemStats(&before)
	m.cpuStart = cpuTime()
	tr.enable(true)
	m.start = time.Now()
	m.outs = r.timed(n, m.start.Add(capWall))
	runtime.ReadMemStats(&after)
	m.peakHeap, m.peakGor = smp.stop()
	m.mallocs = after.Mallocs - before.Mallocs
	m.allocated = after.TotalAlloc - before.TotalAlloc

	msgs1, bytes1 := r.costs()
	tr.enable(false)
	m.msgs, m.wireBytes = msgs1-msgs0, bytes1-bytes0
	r.judge(m.outs)
	m.mismatch = r.verify()
	if tr != nil {
		m.layer = r.layer()
	}
	return m, nil
}

// report derives the end-to-end metrics. It fails only when no op at all
// completed soundly — a workload that cannot produce a single latency
// sample has nothing to report.
func (m *measurement) report(name string) (*result, error) {
	res := &result{Workload: name, Planned: m.planned, Reasons: map[string]int{}, Metrics: map[string]float64{}}
	var lat []float64 // of the sound ops
	for i := range m.outs {
		o := &m.outs[i]
		res.Attempted++
		switch o.failure {
		case "":
			lat = append(lat, float64(o.latency)/float64(time.Millisecond))
			continue
		case unsound:
			res.Invalid++
		default:
			res.Failed++
		}
		if res.Reasons[o.failure]++; res.Reasons[o.failure] <= 5 && o.err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: op %d %s: %v\n", name, o.index, o.failure, o.err)
		}
	}
	ops := float64(res.Attempted)
	for _, line := range m.mismatch {
		res.Attempted++
		res.Failed++
		res.Reasons["measurement path"]++
		fmt.Fprintf(os.Stderr, "bench: %s: measurement path: %s\n", name, line)
	}
	if len(lat) == 0 {
		return res, fmt.Errorf("%s: completed zero sound ops of %d attempted (%v)", name, res.Attempted, res.Reasons)
	}
	res.Metrics["setup_s"] = median(m.setups)
	res.Metrics["ops_per_s"] = m.quiet(1, 1-quietShare, segment.opsPerS)
	tail := tailQuantile(len(lat))
	res.Metrics["latency_ms_mid"] = midmean(lat)
	res.Metrics["latency_ms_p90"] = m.quiet(latencySegmentOps, quietShare, func(s segment) float64 { return percentile(s.latMs, tail) })
	res.Metrics["msgs_per_op"] = float64(m.msgs) / ops
	res.Metrics["wire_kb_per_op"] = float64(m.wireBytes) / 1024 / ops
	res.Metrics["allocs_per_op"] = float64(m.mallocs) / ops
	res.Metrics["alloc_kb_per_op"] = float64(m.allocated) / 1024 / ops
	res.Metrics["peak_heap_mb"] = m.peakHeap / (1 << 20)
	res.Metrics["valid_share"] = 1 - float64(res.Failed+res.Invalid)/float64(res.Attempted)
	return res, nil
}

// Throughput, tail latency and CPU time are read off the quiet quarter of
// the timed phase. The benchmark runs on a few cores of a shared host
// whose neighbours make identical work cost 1.0× or 1.8× for seconds at a
// stretch (README.md has the trace), so a whole-run rate or percentile
// lands wherever the mix of the two regimes happened to fall. What repeats
// is the figure of the undisturbed machine. The timed phase is therefore
// cut into up to maxSegments runs of consecutive completions, each
// statistic is taken per segment, and the run reports the quartile of the
// segments on the quiet side: the lower one of a cost, the upper one of a
// rate. A change that makes the program slower makes every segment
// slower, the quiet ones too. (The middle of the latencies needs no such
// care: a midmean leaves the disturbed minority of the samples out as it
// is.)
const (
	maxSegments = 16
	quietShare  = 0.25
	// A segment has to hold this many ops before a 90th percentile of its
	// latencies means anything; a run too short for two such segments
	// reads its tail latency off the whole timed phase.
	latencySegmentOps = 20
)

// segment is one run of consecutive completions of the timed phase.
type segment struct {
	ops   int // completed, sound or not: their work was done
	wall  time.Duration
	cpu   time.Duration
	latMs []float64 // the sound ops' latencies
}

func (s segment) opsPerS() float64 { return float64(len(s.latMs)) / s.wall.Seconds() }
func (s segment) cpuMsPerOp() float64 {
	return float64(s.cpu) / float64(time.Millisecond) / float64(s.ops)
}

// segments cuts the completed ops, in completion order, into at most
// maxSegments segments of one size: at least minOps, and a whole number
// of the workload's op cycles, so that every segment holds the same mix
// of work. The last segment takes the remainder.
func (m *measurement) segments(minOps int) []segment {
	var done []*opOutcome
	for i := range m.outs {
		if !m.outs[i].done.IsZero() {
			done = append(done, &m.outs[i])
		}
	}
	if len(done) == 0 {
		return nil
	}
	sort.Slice(done, func(i, j int) bool { return done[i].done.Before(done[j].done) })
	cycle := m.cycle
	if cycle < 1 {
		cycle = 1
	}
	per := (len(done) + maxSegments - 1) / maxSegments
	if per < minOps {
		per = minOps
	}
	per = (per + cycle - 1) / cycle * cycle
	n := len(done) / per
	if n < 1 {
		n = 1
	}
	segs := make([]segment, n)
	prevWall, prevCPU := m.start, m.cpuStart
	for s := range segs {
		part := done[s*per:]
		if s < n-1 {
			part = part[:per]
		}
		last := part[len(part)-1]
		seg := segment{ops: len(part), wall: last.done.Sub(prevWall), cpu: last.doneCPU - prevCPU}
		for _, o := range part {
			if o.failure == "" {
				seg.latMs = append(seg.latMs, float64(o.latency)/float64(time.Millisecond))
			}
		}
		segs[s] = seg
		prevWall, prevCPU = last.done, last.doneCPU
	}
	return segs
}

// quiet is the q-quantile, over the segments that hold a sound op, of one
// statistic of a segment.
func (m *measurement) quiet(minOps int, q float64, stat func(segment) float64) float64 {
	var xs []float64
	for _, s := range m.segments(minOps) {
		if len(s.latMs) > 0 {
			xs = append(xs, stat(s))
		}
	}
	return percentile(xs, q)
}

// cpuMsPerOp is process CPU time per issued op, failed ops included (their
// work was done), in the quiet quarter of the timed phase.
func (m *measurement) cpuMsPerOp() float64 {
	return m.quiet(1, quietShare, segment.cpuMsPerOp)
}

// closedLoop runs n ops over `clients` goroutines, each issuing its next
// op only after the previous one returned, and stops issuing at stop. Op
// indices are handed out in order, so every run issues the same prefix of
// the same op sequence.
func closedLoop(clients, n int, stop time.Time, op func(index int) opOutcome) []opOutcome {
	outs := make([]opOutcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i > n || time.Now().After(stop) {
					return
				}
				o := op(i)
				o.index, o.done, o.doneCPU = i, time.Now(), cpuTime()
				outs[i-1] = o
			}
		}()
	}
	wg.Wait()
	issued := outs[:0]
	for _, o := range outs {
		if o.index > 0 {
			issued = append(issued, o)
		}
	}
	return issued
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler records heap-in-use and tracks the peak of the goroutine count
// over the timed phase. It reads runtime/metrics, which neither stops the
// world nor allocates once the sample slice exists, so it does not show
// up in the numbers it sits beside.
type sampler struct {
	quit chan struct{}
	done chan struct{}
	heap []float64 // one reading per tick
	gor  int
}

func startSampler(every time.Duration) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{}), heap: make([]float64, 0, 1024)}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	read := func() {
		metrics.Read(samples)
		// objects + unused is MemStats.HeapInuse.
		s.heap = append(s.heap, float64(samples[0].Value.Uint64()+samples[1].Value.Uint64()))
		if g := int(samples[2].Value.Uint64()); g > s.gor {
			s.gor = g
		}
	}
	read()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-s.quit:
				read()
				return
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak heap-in-use and the peak
// goroutine count. The heap peak is the typical one, not the single
// highest reading of the run: the timed phase is cut into maxSegments
// slices of equal length and the median of their peaks is reported. Where
// between two collections the highest reading of a whole run lands is
// luck — over ten runs of chan2k_count it spread 16% — while the peak a
// second or so of the workload reaches repeats within 4%.
func (s *sampler) stop() (peakHeap float64, peakGoroutines int) {
	close(s.quit)
	<-s.done
	slices := maxSegments
	if len(s.heap) < slices {
		slices = len(s.heap)
	}
	peaks := make([]float64, slices)
	for i := range peaks {
		for _, h := range s.heap[i*len(s.heap)/slices : (i+1)*len(s.heap)/slices] {
			if h > peaks[i] {
				peaks[i] = h
			}
		}
	}
	return percentile(peaks, 0.5), s.gor
}

// settleGoroutines waits (bounded) for the goroutine count to come back
// near its level before the workload started, so one workload's runtimes
// are gone before the next one's numbers are taken.
func settleGoroutines(base int) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}
