package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/transport"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted in place: 10 20 30 40
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMidmeanAndTailQuantile(t *testing.T) {
	// Eight samples: the middle half is ranks 2..6, four whole samples.
	if got := midmean([]float64{1, 100, 3, 4, 5, 6, 2, 0}); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("midmean = %v, want 3.5", got)
	}
	// Six samples: the middle half is ranks 1.5..4.5 — half of the second
	// and of the fifth sample, all of the two between.
	if got, want := midmean([]float64{10, 20, 30, 40, 50, 600}), (0.5*20+30+40+0.5*50)/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("midmean = %v, want %v", got, want)
	}
	// Two steps of latency: the midmean follows the mix, where a median
	// would jump from one step to the other.
	steps := func(low int) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = 87.5
			if i < low {
				xs[i] = 77.5
			}
		}
		return xs
	}
	a, b := midmean(steps(45)), midmean(steps(55))
	if a <= b || a-b > 2.5 || a >= 87.5 || b <= 77.5 {
		t.Errorf("midmean over 45%% and 55%% low steps = %v and %v, want them close and between the steps", a, b)
	}
	if got := midmean([]float64{7}); got != 7 {
		t.Errorf("midmean of one sample = %v, want 7", got)
	}
	if got := midmean(nil); got != 0 {
		t.Errorf("midmean of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {14, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {5000, 0.9}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The timed phase is cut into segments of whole op cycles and the quiet
// quartile of the segments is reported: a stretch of the run the box
// disturbed must not carry the figure.
func TestQuietQuartileOverSegments(t *testing.T) {
	start := time.Unix(1000, 0)
	m := &measurement{cycle: 5, start: start}
	// 170 ops, one every 10 ms with 2 ms of CPU; ops 61..120 run on a
	// disturbed box: 30 ms apart, 4 ms of CPU, latency tripled.
	at, cpu := start, time.Duration(0)
	for i := 1; i <= 170; i++ {
		gap, work, lat := 10*time.Millisecond, 2*time.Millisecond, 10*time.Millisecond
		if i > 60 && i <= 120 {
			gap, work, lat = 3*gap, 2*work, 3*lat
		}
		at, cpu = at.Add(gap), cpu+work
		m.outs = append(m.outs, opOutcome{index: i, latency: lat, done: at, doneCPU: cpu})
	}
	m.outs[3].failure = unsound                                              // answered, not sound: no latency sample
	m.outs = append(m.outs, opOutcome{index: 171, failure: "not delivered"}) // never completed: in no segment

	segs := m.segments(1)
	if len(segs) != 11 { // ceil(170/16) = 11, rounded up to whole cycles = 15 per segment
		t.Fatalf("%d segments, want 11", len(segs))
	}
	total := 0
	for i, s := range segs {
		total += s.ops
		if want := 15; i < len(segs)-1 && s.ops != want {
			t.Errorf("segment %d holds %d ops, want %d (a whole number of cycles)", i, s.ops, want)
		}
	}
	if total != 170 || segs[10].ops != 20 {
		t.Errorf("segments hold %d ops, the last %d; want 170 and 20", total, segs[10].ops)
	}
	if got := len(segs[0].latMs); got != 14 {
		t.Errorf("first segment has %d latency samples, want 14: the unsound op gives none", got)
	}
	if got := m.cpuMsPerOp(); math.Abs(got-2) > 1e-9 {
		t.Errorf("cpu per op = %v ms, want the undisturbed 2", got)
	}
	if got := m.quiet(1, 1-quietShare, segment.opsPerS); math.Abs(got-100) > 1e-6 {
		t.Errorf("ops per second = %v, want the undisturbed 100", got)
	}
	if got := m.quiet(latencySegmentOps, quietShare, func(s segment) float64 { return percentile(s.latMs, 0.9) }); math.Abs(got-10) > 1e-9 {
		t.Errorf("tail latency = %v ms, want the undisturbed 10", got)
	}
	// Fewer ops than one latency segment: one segment, the whole phase.
	m.outs = m.outs[:12]
	if got := len(m.segments(latencySegmentOps)); got != 1 {
		t.Errorf("%d latency segments over 12 ops, want 1", got)
	}
	if got := len(m.segments(1)); got != 2 { // ceil(12/16)=1 → 5 per segment → 2 segments, the last takes 7
		t.Errorf("%d segments over 12 ops at cycle 5, want 2", got)
	}
}

// The contract's steadiness rule is written in terms of Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles → [2.75, 5.5, 8.25]
	if got := quartileSpread(ten); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("spread of 1..10 = %v, want 1.0", got)
	}
	four := []float64{10, 11, 12, 20} // quantiles → [10.25, 11.5, 18.0]
	if got, want := quartileSpread(four), (18.0-10.25)/11.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread of four = %v, want %v", got, want)
	}
	three := []float64{9, 10, 12} // too few for quartiles: range over median
	if got := quartileSpread(three); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("spread of three = %v, want 0.3", got)
	}
}

func TestLogBuckets(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < 58<<subBits; i++ { // up to 2^61, clear of int64 overflow
		lo := bucketLow(i)
		if lo <= prev {
			t.Fatalf("bucketLow not increasing at %d: %d after %d", i, lo, prev)
		}
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(bucketLow(%d)=%d) = %d", i, lo, got)
		}
		if next := bucketLow(i + 1); bucketOf(next-1) != i {
			t.Fatalf("bucket %d does not reach up to %d", i, next-1)
		} else if lo >= 1<<subBits && float64(next-lo)/float64(lo) > 1.0/(1<<subBits)+1e-12 {
			t.Fatalf("bucket %d is wider than 1/%d of its lower edge", i, 1<<subBits)
		}
		prev = lo
	}
	var a spanAgg
	for ns := int64(1); ns <= 100000; ns++ {
		a.observe(ns)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := a.quantile(q); math.Abs(got-want)/want > 0.04 {
			t.Errorf("quantile(%v) = %v, want %v within 4%%", q, got, want)
		}
	}
	if got := a.mean(); math.Abs(got-50000.5) > 1e-6 {
		t.Errorf("mean = %v, want 50000.5", got)
	}
	var s stripedAgg
	s.observe(0, 10)
	s.observe(1, 30)
	s.observe(6, 50)
	if m := s.merged(); m.count.Load() != 3 || m.total.Load() != 90 {
		t.Errorf("merged stripes: count %d total %d, want 3 and 90", m.count.Load(), m.total.Load())
	}
}

func TestFifoMatcher(t *testing.T) {
	m := newFifoMatcher(4)
	if _, ok := m.pop(0, 1); ok {
		t.Fatal("pop on an empty pair matched")
	}
	// Two pairs into one destination and one reverse pair, interleaved:
	// each pair must come back in its own send order.
	m.push(0, 1, 100)
	m.push(2, 1, 200)
	m.push(0, 1, 101)
	m.push(1, 0, 300)
	m.push(2, 1, 201)
	m.push(0, 1, 102)
	for _, c := range []struct {
		from, to graph.HostID
		want     int64
	}{{2, 1, 200}, {0, 1, 100}, {0, 1, 101}, {1, 0, 300}, {2, 1, 201}, {0, 1, 102}} {
		if got, ok := m.pop(c.from, c.to); !ok || got != c.want {
			t.Fatalf("pop(%d→%d) = %d, %v; want %d", c.from, c.to, got, ok, c.want)
		}
	}
	if _, ok := m.pop(0, 1); ok {
		t.Fatal("a drained pair matched again")
	}
	// A send the transport reports lost is taken back, newest first.
	m.push(3, 2, 1)
	m.push(3, 2, 2)
	m.unpush(3, 2)
	if got, ok := m.pop(3, 2); !ok || got != 1 {
		t.Fatalf("after unpush pop = %d, %v; want 1", got, ok)
	}
	if _, ok := m.pop(3, 2); ok {
		t.Fatal("the unpushed stamp was still matched")
	}
}

// slowTransport is a Transport whose Send takes a known time.
type slowTransport struct {
	transport.Transport
	send time.Duration
}

func (s slowTransport) Send(transport.Message) error { time.Sleep(s.send); return nil }

// sendingHandler works for `work`, then sends twice through tr.
type sendingHandler struct {
	work time.Duration
	tr   transport.Transport
	h    graph.HostID
}

func (h sendingHandler) Start(*sim.Context) {
	time.Sleep(h.work)
	for i := 0; i < 2; i++ {
		h.tr.Send(transport.Message{From: h.h, To: 1})
	}
}
func (sendingHandler) Receive(*sim.Context, sim.Message) {}
func (sendingHandler) Timer(*sim.Context, int)           {}

func TestSelfTimeSubtractsSends(t *testing.T) {
	const work, send = 20 * time.Millisecond, 15 * time.Millisecond
	tr := newTracer(2, time.Millisecond, false)
	tr.enable(true)
	tp := &tracedTransport{Transport: slowTransport{send: send}, t: tr}
	op := tr.newOp(1, 1)
	hs := []sim.Handler{sendingHandler{work: work, tr: tp, h: 0}, nil}
	if n := tr.wrapHandlers(op, hs); n != 1 {
		t.Fatalf("wrapped %d handlers, want 1", n)
	}
	hs[0].Start(nil)

	self := tr.aggs[spCallback].merged()
	sends := tr.aggs[spSend].merged()
	if sends.count.Load() != 2 || time.Duration(sends.total.Load()) < 2*send {
		t.Fatalf("send spans: %d totalling %v, want 2 of ≥ %v each", sends.count.Load(), time.Duration(sends.total.Load()), send)
	}
	got := time.Duration(self.total.Load())
	if self.count.Load() != 1 || got < work || got >= work+send {
		t.Fatalf("callback self time %v, want about %v: the span (≥ %v) minus the two sends inside it", got, work, work+2*send)
	}
	if last := op.lastCallback(); last <= 0 {
		t.Fatal("the op never saw its callback end")
	}
	// Dumped: the callback under the op, both sends under the callback.
	var cb int64
	children := 0
	for _, r := range tr.dump {
		if r.Name == "protocol.start" && r.Parent == op.rootID {
			cb = r.ID
		}
	}
	for _, r := range tr.dump {
		if r.Name == "transport.send" && r.Parent == cb && cb != 0 {
			children++
		}
	}
	if children != 2 {
		t.Fatalf("dump has %d sends parented to the callback, want 2: %+v", children, tr.dump)
	}
}

func TestMetricAndWorkloadNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	if n := len(listed()); n < 2 || n > 8 {
		t.Errorf("%d listed workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	setup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("metric %s: unit %q better %q bound %v", d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	for _, w := range workloads {
		check("workload", w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// BENCHMARK.json is the benchmark's contract with its driver; it must say
// exactly what the program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if strings.Join(doc.Command, " ") != "go run ./bench" {
		t.Errorf("command = %v", doc.Command)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(listed()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed in the program", len(doc.Workloads), len(listed()))
	}
	for i, w := range listed() {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
}

// Every probe metric is a positive number, and the probes fill exactly
// the per-layer names the span side leaves at 0 on every workload.
func TestProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("a few seconds of tight loops")
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for name, v := range runProbes(23) {
		if !known[name] {
			t.Errorf("probe %s is not a per-layer metric", name)
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("probe %s = %v, want a positive number", name, v)
		}
	}
}

// fakeRunner answers every op instantly; its judge calls every second
// answer (or every answer) invalid.
type fakeRunner struct{ invalidEvery int }

func (f fakeRunner) timed(n int, stop time.Time) []opOutcome {
	return closedLoop(2, n, stop, func(int) opOutcome {
		time.Sleep(200 * time.Microsecond)
		return opOutcome{latency: time.Millisecond, value: 1}
	})
}
func (f fakeRunner) judge(outs []opOutcome) {
	for i := range outs {
		if outs[i].index%f.invalidEvery == 0 {
			outs[i].failure = unsound
		}
	}
}
func (fakeRunner) costs() (int64, int64) { return 0, 0 }
func (fakeRunner) verify() []string      { return []string{"harness says 1, registry says 2"} }
func (fakeRunner) layer() layerStats     { return layerStats{} }
func (fakeRunner) close()                {}

func TestInvalidAnswersAreCountedNotFatal(t *testing.T) {
	fake := func(every int) *workload {
		return &workload{name: "fake", setup: func(int64, int, *tracer) (runner, error) { return fakeRunner{every}, nil }}
	}
	m, err := measure(fake(2), 1, 40, 2, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.report("fake")
	if err != nil {
		t.Fatalf("half the answers invalid must still report: %v", err)
	}
	// 40 ops, 20 answered unsoundly, plus one measurement-path mismatch
	// counted as a failed op.
	if res.Attempted != 41 || res.Failed != 1 || res.Invalid != 20 || res.Reasons[unsound] != 20 || res.Reasons["measurement path"] != 1 {
		t.Fatalf("attempted %d failed %d invalid %d reasons %v", res.Attempted, res.Failed, res.Invalid, res.Reasons)
	}
	if got, want := res.Metrics["valid_share"], 1-21.0/41; math.Abs(got-want) > 1e-9 {
		t.Errorf("valid_share = %v, want %v", got, want)
	}
	if got := res.Metrics["latency_ms_mid"]; got != 1 {
		t.Errorf("latency_ms_mid = %v over the 20 sound ops, want 1", got)
	}
	if len(m.setups) != 2 || res.Metrics["setup_s"] < 0 {
		t.Errorf("set-ups timed: %v", m.setups)
	}

	m, err = measure(fake(1), 1, 8, 1, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.report("fake"); err == nil {
		t.Fatal("a run without one sound op must be an error, not a report")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_ms_p50", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 102}, []float64{101, 100, 102}, "ok"},
		{"slower", lower, []float64{100, 101, 102}, []float64{110, 111, 112}, "regressed"},
		{"faster", lower, []float64{100, 101, 102}, []float64{90, 91, 92}, "ok"},
		{"throughput drop", higher, []float64{50, 50.5, 51}, []float64{45, 45.5, 46}, "regressed"},
		{"throughput gain", higher, []float64{50, 50.5, 51}, []float64{55, 55.5, 56}, "ok"},
		{"noisy", lower, []float64{100, 120, 90}, []float64{110, 111, 112}, "unresolved"},
	} {
		if got := judgePair(c.d, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.verdict, c.want, got)
		}
	}
}

// TestSmoke runs every workload but the 2K-host engine one for eight ops,
// untraced and traced, so `go test ./...` exercises the whole harness in
// seconds. Soundness of individual answers is the benchmark's business,
// not this test's: under -race or on a loaded box a wall-clock hop can
// run late, and that must surface as a counted failure, never a hang or
// a crash.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets and runs queries")
	}
	const ops = 8
	for _, name := range []string{"chan60_churn", "tcp60_static", "stream60_churn", "sim2k_churn"} {
		w := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			m, err := measure(w, 23, ops, 1, time.Minute, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.outs) != ops {
				t.Fatalf("issued %d ops, want %d", len(m.outs), ops)
			}
			if len(m.mismatch) > 0 {
				t.Errorf("measurement paths disagree: %v", m.mismatch)
			}
			res, err := m.report(name)
			if err != nil {
				t.Skipf("no sound op on this box: %v", err)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}

			tr := newTracer(w.hosts, w.hop, w.static)
			tm, err := measure(w, 23, ops, 1, time.Minute, tr)
			if err != nil {
				t.Fatal(err)
			}
			layers := layerMetrics(w, tr, tm)
			for _, d := range perLayer {
				if _, ok := layers[d.Name]; !ok {
					t.Errorf("traced run has no %s", d.Name)
				}
			}
			want := []string{"protocol.callbacks_per_op", "protocol.self_us_per_op"}
			if name != "sim2k_churn" {
				want = append(want, "transport.frames_per_op", "transport.send_ns", "node.instantiate_us_per_op", "node.converge_ms_p50")
			}
			if w.static {
				want = append(want, "node.queue_wait_us_p50", "transport.deliver_lag_us_p50")
			}
			for _, k := range want {
				if layers[k] <= 0 {
					t.Errorf("%s = %v on %s, want it measured", k, layers[k], name)
				}
			}
			if path, err := tr.writeDump(t.TempDir(), name); err != nil {
				t.Error(err)
			} else if blob, _ := os.ReadFile(path); !json.Valid(blob) {
				t.Errorf("%s is not JSON", path)
			}
		})
	}
}
