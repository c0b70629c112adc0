package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"validity/internal/obs"
)

// TestConflictingFlagsRejected pins the flag-validation contract: flag
// combinations that previously were silently ignored now fail fast.
func TestConflictingFlagsRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"peers under chan", []string{"-transport", "chan", "-peers", "0-9=x:1"}, "-peers"},
		{"serve under chan", []string{"-transport", "chan", "-serve", "0-9"}, "-serve"},
		{"run-for under query", []string{"-query", "-run-for", "5s"}, "-run-for"},
		{"queries on a worker", []string{"-queries", "4"}, "-queries"},
		{"concurrency on a worker", []string{"-concurrency", "2"}, "-concurrency"},
		{"zero queries", []string{"-query", "-queries", "0"}, "-queries"},
		{"tcp without peers", []string{"-transport", "tcp"}, "-peers"},
		{"vectors beyond wire format", []string{"-query", "-c", "300"}, "-c"},
		{"malformed churn spec", []string{"-query", "-churn", "bogus"}, "churn"},
		{"late-joiner querying host", []string{"-query", "-hq", "0", "-kill", "+0@5"}, "late joiner"},
		{"churn without survivors", []string{"-query", "-hosts", "60", "-churn", "rate=60"}, "churn"},
		{"sessions churn without mean", []string{"-query", "-churn", "model=sessions"}, "churn"},
		{"flush-window under chan", []string{"-flush-window", "1ms"}, "-flush-window"},
		{"flush-window eats the hop bound", []string{"-transport", "tcp",
			"-peers", "0-99=127.0.0.1:1", "-serve", "0-99", "-flush-window", "10ms"}, "-flush-window"},
		{"fleet without metrics or query", []string{"-fleet", "127.0.0.1:9101"}, "-fleet"},
		{"malformed fleet entry", []string{"-query", "-fleet", "noport"}, "-fleet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := ParseArgs("validityd", tc.args)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Out = &bytes.Buffer{}
			err = Run(cfg)
			if err == nil {
				t.Fatalf("args %v accepted; want an error mentioning %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestInProcessQueryStream answers a mixed COUNT/MIN stream fully in
// process: 6 queries, 2 in flight, alternating aggregate and querying
// host, each judged against its own oracle bounds.
func TestInProcessQueryStream(t *testing.T) {
	var out bytes.Buffer
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", "60", "-seed", "23",
		"-query", "-hq", "0,7", "-agg", "count,min",
		"-queries", "6", "-concurrency", "2",
		"-hop", testHop.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	if err := Run(cfg); err != nil {
		t.Fatalf("query stream failed: %v\n%s", err, out.String())
	}
	lines := resultRe.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 6 {
		t.Fatalf("got %d result lines, want 6:\n%s", len(lines), out.String())
	}
	for _, m := range lines {
		if m[4] != "true" {
			t.Fatalf("a query was judged invalid:\n%s", out.String())
		}
	}
	if !strings.Contains(out.String(), "queries/sec") {
		t.Fatalf("no throughput summary:\n%s", out.String())
	}
}

var streamLineRe = regexp.MustCompile(
	`validityd: q=(\d+) agg=(\w+) hq=(\d+) result=[0-9.]+ lower=[0-9.]+ upper=[0-9.]+ slack=[0-9.]+ valid=(true|false) msgs=([0-9]+) bytes=([0-9]+)`)

// TestConcurrentTCPQueryStream is the acceptance demo for the engine: a
// single three-process fleet on loopback answers 8 overlapping queries
// (concurrency 2, COUNT and MIN alternating between two querying hosts)
// without any restart. Every result must be valid against its own oracle
// bounds, and same-spec queries must cost about the same number of
// messages — multiplexing must not leak one query's traffic into
// another's accounting.
func TestConcurrentTCPQueryStream(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and sleeps out wall-clock query deadlines")
	}
	ports := freeAddrs(t, 3)
	peers := fmt.Sprintf("0-19=%s,20-39=%s,40-59=%s", ports[0], ports[1], ports[2])
	common := []string{
		"-transport", "tcp",
		"-topology", "random", "-hosts", "60", "-seed", "23",
		"-peers", peers,
		"-agg", "count,min",
		"-hq", "0,7",
		// D̂ is the operator's overestimate of the stable diameter (§5.1);
		// the default diameter+2 leaves no headroom for concurrent queries
		// sharing host goroutines plus first-contact TCP dials, so the
		// fleet runs with the slack a deployment would configure.
		"-dhat", "12",
		"-hop", testHop.String(),
		// A positive write-coalescing window, well under hop/2: the e2e
		// must produce byte-identical result lines with batching on.
		"-flush-window", "1ms",
	}

	// Workers serve indefinitely (no -run-for): the engine, not a
	// per-query lifetime, owns them. The test kills them at cleanup.
	for _, serve := range []string{"20-39", "40-59"} {
		args := append(append([]string{}, common...), "-serve", serve)
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "VALIDITYD_CHILD_ARGS="+joinArgs(args))
		var childOut bytes.Buffer
		cmd.Stdout = &childOut
		cmd.Stderr = &childOut
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
			if t.Failed() {
				t.Logf("worker %s output:\n%s", serve, childOut.String())
			}
		})
	}
	waitListening(t, ports[1])
	waitListening(t, ports[2])

	var out bytes.Buffer
	args := append(append([]string{}, common...),
		"-serve", "0-19", "-query", "-queries", "8", "-concurrency", "2")
	cfg, err := ParseArgs("validityd", args)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	if err := Run(cfg); err != nil {
		t.Fatalf("query stream failed: %v\n%s", err, out.String())
	}

	lines := streamLineRe.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 8 {
		t.Fatalf("got %d result lines, want 8:\n%s", len(lines), out.String())
	}
	msgsByQuery := make(map[int]int64)
	aggByQuery := make(map[int]string)
	for _, m := range lines {
		if m[4] != "true" {
			t.Fatalf("query %s judged invalid:\n%s", m[1], out.String())
		}
		id, _ := strconv.Atoi(m[1])
		msgs, _ := strconv.ParseInt(m[5], 10, 64)
		if msgs == 0 {
			t.Fatalf("query %s reports zero messages:\n%s", m[1], out.String())
		}
		bytesOnWire, _ := strconv.ParseInt(m[6], 10, 64)
		if bytesOnWire == 0 {
			t.Fatalf("query %s reports zero bytes on the wire:\n%s", m[1], out.String())
		}
		msgsByQuery[id] = msgs
		aggByQuery[id] = m[2]
	}
	msgsByAgg := make(map[string][]int64)
	for id := 1; id <= 8; id++ { // issue order, so index 0 is the cold start
		msgsByAgg[aggByQuery[id]] = append(msgsByAgg[aggByQuery[id]], msgsByQuery[id])
	}
	// Queries of identical spec differ only in their per-query coin
	// tosses, so no warm count may sit far ABOVE the median — an inflated
	// count means the demux leaked another query's traffic into this
	// one's accounting. The check is one-sided: stats are snapshotted at
	// answer-in-hand (adaptive reads), so a query read mid-trailing-
	// reflood legitimately shows a truncated count, while a leak only
	// ever adds. The first query of each kind is excluded: it pays the
	// fleet's one-time cold start (lazy instantiation stretches its
	// rounds, §5.1 refloods on every late-arriving partial), which is
	// exactly the cost the engine amortizes away for every query after
	// it.
	for kind, counts := range msgsByAgg {
		if len(counts) != 4 {
			t.Fatalf("expected 4 %s queries, got %d", kind, len(counts))
		}
		warm := append([]int64(nil), counts[1:]...)
		sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
		median := warm[len(warm)/2]
		if hi := warm[len(warm)-1]; float64(hi) > 2.5*float64(median) {
			t.Fatalf("%s warm per-query message counts diverge above the median: %v", kind, counts)
		}
	}
}

// TestBenchEngine is the `make bench` harness: gated on BENCH_ENGINE_OUT,
// it answers a fixed query stream in process — once over a static network
// and once under per-query churn, the paper's actual regime — and writes
// both queries/sec figures to the named JSON file so the perf trajectory
// tracks dynamism, not just the static best case.
func TestBenchEngine(t *testing.T) {
	outPath := os.Getenv("BENCH_ENGINE_OUT")
	if outPath == "" {
		t.Skip("set BENCH_ENGINE_OUT=<file> to run the engine benchmark")
	}
	const (
		hosts       = 60
		queries     = 16
		concurrency = 4
		churnRate   = 6
	)
	churnSpec := "rate=" + strconv.Itoa(churnRate) + ",window=12"
	// Each regime runs on its own registry so the daemon_query_latency_ms
	// histogram holds exactly that regime's observations — throughput says
	// how fast the stream drained, the tail percentiles say what a single
	// query paid for it.
	runStream := func(extra ...string) (float64, *obs.Histogram, float64) {
		t.Helper()
		var out bytes.Buffer
		args := append([]string{
			"-transport", "chan",
			"-topology", "random", "-hosts", strconv.Itoa(hosts), "-seed", "23",
			"-query", "-hq", "0,7", "-agg", "count,min",
			"-queries", strconv.Itoa(queries), "-concurrency", strconv.Itoa(concurrency),
			"-hop", testHop.String(),
		}, extra...)
		cfg, err := ParseArgs("validityd", args)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Out = &out
		cfg.Obs = obs.NewRegistry()
		start := time.Now()
		if err := Run(cfg); err != nil {
			t.Fatalf("bench stream %v failed: %v\n%s", extra, err, out.String())
		}
		lat := cfg.Obs.Histogram("daemon_query_latency_ms", "", obs.LatencyBucketsMs)
		if lat.Count() != queries {
			t.Fatalf("bench stream %v observed %d latencies, want %d", extra, lat.Count(), queries)
		}
		// Wire bytes per query, off the engine's §6.3 counter — the exact
		// transport-frame cost of every send, so the framing overhead
		// trend is tracked alongside throughput and tails.
		bytesPerQuery := float64(cfg.Obs.Counter("node_bytes_sent_total", "").Value()) / float64(queries)
		return float64(queries) / time.Since(start).Seconds(), lat, bytesPerQuery
	}
	staticQPS, staticLat, staticBPQ := runStream()
	churnQPS, churnLat, _ := runStream("-churn", churnSpec)

	// Join churn: session lifetimes with rebirth, so queries run over a
	// population that shrinks AND grows — the arrivals regime the event
	// timeline opened. Mean lifetime comfortably above the 24-tick
	// deadline keeps most hosts up at any instant while still cycling
	// sessions through every query.
	joinSpec := "model=sessions,mean=60,join=20"
	joinQPS, joinLat, _ := runStream("-churn", joinSpec)

	// Continuous throughput: one windowed query streamed in process, static
	// and churned, measured in windows/sec. Window length stays at the §4.2
	// minimum 2·D̂ so the figure tracks the engine, not idle window tail.
	const benchWindows = 12
	runContinuousStream := func(extra ...string) float64 {
		t.Helper()
		var out bytes.Buffer
		args := append([]string{
			"-transport", "chan",
			"-topology", "random", "-hosts", strconv.Itoa(hosts), "-seed", "23",
			"-query", "-continuous", "-windows", strconv.Itoa(benchWindows),
			"-hq", "0", "-agg", "count",
			"-hop", testHop.String(),
		}, extra...)
		cfg, err := ParseArgs("validityd", args)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Out = &out
		start := time.Now()
		if err := Run(cfg); err != nil {
			t.Fatalf("bench continuous %v failed: %v\n%s", extra, err, out.String())
		}
		return float64(benchWindows) / time.Since(start).Seconds()
	}
	staticWPS := runContinuousStream()
	churnWPS := runContinuousStream("-churn", "rate="+strconv.Itoa(churnRate))
	joinWPS := runContinuousStream("-churn", joinSpec)

	// Scale regime: the host-sharded scheduler's headline — a 2,048-host
	// fleet in one process on the chan transport. Alongside throughput it
	// records the two numbers the sharding is supposed to bound: peak live
	// goroutines (O(shards), not O(hosts)) and peak heap in use (no
	// per-host inbox buffers). Params mirror TestScaleSmoke2K: a 2K-host
	// flood needs δ wide enough for ~10K messages a round and D̂ headroom
	// over the derived diameter+2.
	const (
		scaleHosts   = 2048
		scaleQueries = 4
		scaleHop     = "40ms" // scale_queries_per_sec is bound by it: see TestScaleSmoke2K
	)
	scalePeaks := sampleRuntimePeaks(5 * time.Millisecond)
	var scaleOut bytes.Buffer
	scaleCfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", strconv.Itoa(scaleHosts), "-seed", "23",
		"-query", "-hq", "0", "-agg", "count",
		"-queries", strconv.Itoa(scaleQueries), "-concurrency", "1",
		"-hop", scaleHop,
		"-dhat", "16",
	})
	if err != nil {
		t.Fatal(err)
	}
	scaleCfg.Out = &scaleOut
	scaleStart := time.Now()
	if err := Run(scaleCfg); err != nil {
		t.Fatalf("bench scale stream failed: %v\n%s", err, scaleOut.String())
	}
	scaleQPS := float64(scaleQueries) / time.Since(scaleStart).Seconds()
	scalePeakG, scalePeakHeap := scalePeaks.stop()

	// Sharded-TCP regime: the 60-host stream of the static run, but split
	// across three OS processes on loopback with an explicit -shards 4, so
	// the trajectory also tracks the engine behind real sockets.
	tcpQPS, tcpLat := func() (float64, *obs.Histogram) {
		ports := freeAddrs(t, 3)
		peers := fmt.Sprintf("0-19=%s,20-39=%s,40-59=%s", ports[0], ports[1], ports[2])
		common := []string{
			"-transport", "tcp",
			"-topology", "random", "-hosts", strconv.Itoa(hosts), "-seed", "23",
			"-peers", peers,
			"-agg", "count,min",
			"-hq", "0,7",
			"-dhat", "12",
			"-hop", testHop.String(),
			"-shards", "4",
		}
		for _, serve := range []string{"20-39", "40-59"} {
			args := append(append([]string{}, common...), "-serve", serve)
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "VALIDITYD_CHILD_ARGS="+joinArgs(args))
			var childOut bytes.Buffer
			cmd.Stdout = &childOut
			cmd.Stderr = &childOut
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				cmd.Process.Kill()
				cmd.Wait()
			})
		}
		waitListening(t, ports[1])
		waitListening(t, ports[2])
		var out bytes.Buffer
		args := append(append([]string{}, common...),
			"-serve", "0-19", "-query",
			"-queries", strconv.Itoa(queries), "-concurrency", strconv.Itoa(concurrency))
		cfg, err := ParseArgs("validityd", args)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Out = &out
		cfg.Obs = obs.NewRegistry()
		start := time.Now()
		if err := Run(cfg); err != nil {
			t.Fatalf("bench tcp-sharded stream failed: %v\n%s", err, out.String())
		}
		lat := cfg.Obs.Histogram("daemon_query_latency_ms", "", obs.LatencyBucketsMs)
		return float64(queries) / time.Since(start).Seconds(), lat
	}()

	// Obs-overhead regime: the per-frame instrumentation workload the
	// engine hot path pays — two counter adds and one histogram
	// observation — timed on a real registry and on the nil-disabled
	// form. The pair bounds what the observability plane costs a frame
	// and pins that the disabled form stays a branch, not a lock.
	obsFrameNs := func(reg *obs.Registry) float64 {
		c1 := reg.Counter("bench_frames_total", "")
		c2 := reg.Counter("bench_bytes_total", "")
		h := reg.Histogram("bench_lat_ms", "", obs.LatencyBucketsMs)
		const iters = 2_000_000
		start := time.Now()
		for i := 0; i < iters; i++ {
			c1.Inc()
			c2.Add(int64(i & 0xff))
			h.Observe(float64(i % 1000))
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	obsInstrNs := obsFrameNs(obs.NewRegistry())
	obsNilNs := obsFrameNs(nil)

	report := map[string]any{
		"bench":                       "engine_query_stream",
		"fleet_hosts":                 hosts,
		"queries":                     queries,
		"concurrency":                 concurrency,
		"hop":                         testHop.String(),
		"queries_per_sec":             staticQPS,
		"bytes_per_query":             staticBPQ,
		"churn_spec":                  churnSpec,
		"queries_per_sec_churn":       churnQPS,
		"join_churn_spec":             joinSpec,
		"queries_per_sec_join":        joinQPS,
		"latency_ms_p50":              staticLat.Quantile(0.50),
		"latency_ms_p95":              staticLat.Quantile(0.95),
		"latency_ms_p99":              staticLat.Quantile(0.99),
		"latency_ms_p95_churn":        churnLat.Quantile(0.95),
		"latency_ms_p99_churn":        churnLat.Quantile(0.99),
		"latency_ms_p95_join":         joinLat.Quantile(0.95),
		"latency_ms_p99_join":         joinLat.Quantile(0.99),
		"windows":                     benchWindows,
		"windows_per_sec":             staticWPS,
		"windows_per_sec_churn":       churnWPS,
		"windows_per_sec_join":        joinWPS,
		"queries_per_sec_tcp_sharded": tcpQPS,
		"latency_ms_p50_tcp_sharded":  tcpLat.Quantile(0.50),
		"latency_ms_p95_tcp_sharded":  tcpLat.Quantile(0.95),
		"latency_ms_p99_tcp_sharded":  tcpLat.Quantile(0.99),
		"scale_hosts":                 scaleHosts,
		"scale_hop":                   scaleHop,
		"scale_queries_per_sec":       scaleQPS,
		"scale_peak_goroutines":       scalePeakG,
		"scale_heap_inuse_bytes":      scalePeakHeap,
		"obs_frame_ns_instrumented":   obsInstrNs,
		"obs_frame_ns_nil":            obsNilNs,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f static / %.2f churned / %.2f join-churned / %.2f tcp-sharded queries/sec (static p50/p95/p99 %.0f/%.0f/%.0f ms), %.2f static / %.2f churned / %.2f join-churned windows/sec over %d hosts; scale: %.2f queries/sec over %d hosts, peak %d goroutines, peak heap %.1f MB; obs %.1f ns/frame instrumented, %.1f ns/frame nil -> %s",
		staticQPS, churnQPS, joinQPS, tcpQPS,
		staticLat.Quantile(0.50), staticLat.Quantile(0.95), staticLat.Quantile(0.99),
		staticWPS, churnWPS, joinWPS, hosts,
		scaleQPS, scaleHosts, scalePeakG, float64(scalePeakHeap)/(1<<20),
		obsInstrNs, obsNilNs, outPath)
}
