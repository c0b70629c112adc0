package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"validity/internal/obs"
	"validity/internal/obs/fleet"
)

// syncBuffer is an io.Writer safe to read while Run writes to it from
// another goroutine (the metrics-address log line arrives mid-run).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var metricsAddrRe = regexp.MustCompile(`msg="metrics listening" addr=([0-9.]+:[0-9]+)`)

// waitMetricsAddr polls the daemon's log until the metrics listener
// announces its bound address (the test passes port 0).
func waitMetricsAddr(t *testing.T, log *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := metricsAddrRe.FindStringSubmatch(log.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("metrics listener never announced its address; log:\n%s", log.String())
	return ""
}

// TestMetricsEndpointTCPFleet is the observability acceptance run: a
// three-process fleet answers queries over TCP while this test scrapes the
// issuer's -metrics endpoint mid-run, then reconciles the scraped §6.3
// counters against the per-query result lines. The registry totals keep
// counting trailing refloods after each result line snapshots its stats,
// so the reconciliation is registry ≥ sum-of-lines with a sane upper
// factor, not equality.
func TestMetricsEndpointTCPFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and sleeps out wall-clock query deadlines")
	}
	ports := freeAddrs(t, 3)
	peers := fmt.Sprintf("0-19=%s,20-39=%s,40-59=%s", ports[0], ports[1], ports[2])
	common := []string{
		"-transport", "tcp",
		"-topology", "random", "-hosts", "60", "-seed", "23",
		"-peers", peers,
		// The workload shape the churned-stream race test established:
		// alternating count/min over two querying hosts with a pinned D̂
		// converges reliably across three race-instrumented processes.
		"-agg", "count,min",
		"-hq", "0,7",
		"-dhat", "12",
		"-hop", testHop.String(),
	}
	for _, serve := range []string{"20-39", "40-59"} {
		args := append(append([]string{}, common...), "-serve", serve, "-run-for", "60s")
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
	log := &syncBuffer{}
	const queries = 8
	args := append(append([]string{}, common...),
		"-serve", "0-19", "-query",
		"-queries", strconv.Itoa(queries), "-concurrency", "2",
		"-metrics", "127.0.0.1:0")
	cfg, err := ParseArgs("validityd", args)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	cfg.LogOut = log
	reg := obs.NewRegistry()
	cfg.Obs = reg

	runErr := make(chan error, 1)
	go func() { runErr <- Run(cfg) }()
	addr := waitMetricsAddr(t, log)

	// Mid-run scrapes: the endpoint must serve parseable exposition and a
	// decodable query snapshot while queries are in flight. The server
	// closes when Run returns, so a refused connection after the stream
	// ends is the normal exit of this loop, not a failure.
	scrape := func(path string) (string, bool) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", false // server already closed: Run must have finished
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return string(body), true
	}
	scrapes := 0
	var lastBody string
	for finished := false; !finished; {
		select {
		case err := <-runErr:
			if err != nil {
				t.Fatalf("query process failed: %v\noutput:\n%s\nlog:\n%s", err, out.String(), log.String())
			}
			finished = true
		default:
		}
		body, ok := scrape("/metrics")
		if ok {
			lastBody = body
			if !strings.Contains(body, "# TYPE node_messages_sent_total counter") {
				t.Fatalf("exposition missing node counters:\n%s", body)
			}
			if dbody, ok := scrape("/debug/queries"); ok {
				var dq debugQueries
				if err := json.Unmarshal([]byte(dbody), &dq); err != nil {
					t.Fatalf("mid-run /debug/queries decode: %v\n%s", err, dbody)
				}
				scrapes++
			}
		}
		if !finished {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if scrapes == 0 {
		t.Fatal("query stream finished before a single mid-run scrape")
	}
	if !strings.Contains(lastBody, "transport_frames_out_total{peer=") {
		t.Fatalf("exposition missing per-peer transport counters:\n%s", lastBody)
	}

	// Reconcile the registry against the §6.3 result lines: every send
	// counted on a result line was counted by the registry first, and the
	// registry's surplus is bounded trailing traffic, not runaway
	// double-counting.
	lines := resultRe.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != queries {
		t.Fatalf("got %d result lines, want %d:\n%s", len(lines), queries, out.String())
	}
	var lineMsgs, lineBytes int64
	for _, m := range lines {
		msgs, _ := strconv.ParseInt(m[5], 10, 64)
		bs, _ := strconv.ParseInt(m[6], 10, 64)
		lineMsgs += msgs
		lineBytes += bs
	}
	regMsgs := reg.Counter("node_messages_sent_total", "").Value()
	regBytes := reg.Counter("node_bytes_sent_total", "").Value()
	if regMsgs < lineMsgs || regMsgs > 3*lineMsgs {
		t.Fatalf("node_messages_sent_total = %d, result lines sum to %d (want within [sum, 3×sum])", regMsgs, lineMsgs)
	}
	if regBytes < lineBytes || regBytes > 3*lineBytes {
		t.Fatalf("node_bytes_sent_total = %d, result lines sum to %d (want within [sum, 3×sum])", regBytes, lineBytes)
	}
	lat := reg.Histogram("daemon_query_latency_ms", "", obs.LatencyBucketsMs)
	if lat.Count() != queries {
		t.Fatalf("daemon_query_latency_ms count = %d, want one observation per query (%d)", lat.Count(), queries)
	}
	framesIn := reg.Counter("transport_frames_in_total", "").Value()
	if framesIn == 0 {
		t.Fatal("transport_frames_in_total = 0; worker replies never counted")
	}
	var framesOut int64
	for _, port := range ports[1:] {
		framesOut += reg.Counter("transport_frames_out_total", "", "peer="+port).Value()
	}
	if framesOut == 0 {
		t.Fatal("per-peer transport_frames_out_total all zero")
	}
	if framesOut > regMsgs {
		t.Fatalf("transport wrote %d frames but the engine only sent %d messages", framesOut, regMsgs)
	}
}

// TestFleetObservabilityTCP is the fleet-plane acceptance run: a
// three-process TCP fleet with per-process -metrics endpoints, churn on
// both workers, and a threshold that makes every query slow. It checks
// the three cross-process claims end to end: (1) the slow-query dump is
// one merged timeline carrying events from all three processes (with a
// listed-but-down peer warned about, not fatal); (2) the issuer's
// /metrics/fleet endpoint serves the rolled-up exposition mid-run; (3)
// after the fleet quiesces, the merged counters equal the sum of the
// three per-process registries and the merged latency histogram holds
// exactly one observation per issued query.
func TestFleetObservabilityTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and sleeps out wall-clock query deadlines")
	}
	addrs := freeAddrs(t, 6)
	ports, maddrs := addrs[:3], addrs[3:]
	peers := fmt.Sprintf("0-19=%s,20-39=%s,40-59=%s", ports[0], ports[1], ports[2])
	// The fourth entry is deliberately dead: the collector must degrade
	// that peer's contribution, never the scrape.
	fleetSpec := fmt.Sprintf("issuer=%s,w1=%s,w2=%s,dead=127.0.0.1:1",
		maddrs[0], maddrs[1], maddrs[2])
	common := []string{
		"-transport", "tcp",
		"-topology", "random", "-hosts", "60", "-seed", "23",
		"-peers", peers,
		"-agg", "count",
		"-hq", "0",
		"-dhat", "12",
		"-hop", testHop.String(),
		// One churn event on each worker's host range, so both workers
		// record churn-leave events for every query's timeline.
		"-kill", "25@2,45@3",
	}
	for i, serve := range []string{"20-39", "40-59"} {
		args := append(append([]string{}, common...),
			"-serve", serve, "-run-for", "60s", "-metrics", maddrs[i+1])
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
	waitListening(t, maddrs[1])
	waitListening(t, maddrs[2])

	var out bytes.Buffer
	log := &syncBuffer{}
	const queries = 4
	args := append(append([]string{}, common...),
		"-serve", "0-19", "-query",
		"-queries", strconv.Itoa(queries), "-concurrency", "2",
		"-metrics", maddrs[0],
		"-fleet", fleetSpec,
		"-slow-query", "1ns") // every query dumps its merged trace
	cfg, err := ParseArgs("validityd", args)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	cfg.LogOut = log
	reg := obs.NewRegistry()
	cfg.Obs = reg

	runErr := make(chan error, 1)
	go func() { runErr <- Run(cfg) }()
	waitListening(t, maddrs[0])

	// Mid-run: the daemon's own /metrics/fleet must serve the rolled-up
	// exposition while queries are in flight. The server closes when Run
	// returns, so a refused connection just ends the polling.
	fleetScrapes := 0
	for finished := false; !finished; {
		select {
		case err := <-runErr:
			if err != nil {
				t.Fatalf("query process failed: %v\noutput:\n%s\nlog:\n%s", err, out.String(), log.String())
			}
			finished = true
		default:
		}
		if resp, err := http.Get("http://" + maddrs[0] + "/metrics/fleet"); err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				s := string(body)
				if !strings.Contains(s, "fleet_peer_up{") || !strings.Contains(s, "fleet_peers 4") {
					t.Fatalf("mid-run /metrics/fleet missing fleet meta-series:\n%s", s)
				}
				if !strings.Contains(s, `fleet_peer_up{proc="dead"} 0`) {
					t.Fatalf("mid-run /metrics/fleet does not report the dead peer down:\n%s", s)
				}
				fleetScrapes++
			}
		}
		if !finished {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if fleetScrapes == 0 {
		t.Fatal("query stream finished before a single /metrics/fleet scrape")
	}

	// (1) Merged slow-query timeline: events from all three processes in
	// one dump, the dead peer warned about individually.
	got := log.String()
	for _, want := range []string{
		`msg="slow query trace" query=1 proc=issuer`,
		`msg="slow query trace" query=1 proc=w1`,
		`msg="slow query trace" query=1 proc=w2`,
		"event=churn-leave",
		`msg="slow query trace scrape failed"`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("merged slow-query dump missing %q in log:\n%s", want, got)
		}
	}

	// (3) Reconcile the fleet rollup. Run closed the issuer's metrics
	// server, so re-serve its (injected) registry on the same address and
	// scrape all three processes with the collector until two consecutive
	// rounds agree — the workers' trailing refloods have quiesced — then
	// the merged counter must equal the sum of the per-process registries.
	ln, err := net.Listen("tcp", maddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/snapshot", obs.SnapshotHandler(reg))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	srcs, err := fleet.ParseSources(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	coll := &fleet.Collector{Sources: srcs}
	var peersSnap []fleet.PeerRegistry
	var sum int64
	prev := int64(-1)
	deadline := time.Now().Add(20 * time.Second)
	for {
		peersSnap = coll.Registries(context.Background())
		sum = 0
		live := 0
		for _, p := range peersSnap {
			if p.Err == nil {
				live++
				sum += fleet.CounterTotal(p.Snap, "node_messages_sent_total")
			}
		}
		if live == 3 && sum > 0 && sum == prev {
			break
		}
		prev = sum
		if time.Now().After(deadline) {
			t.Fatalf("fleet never quiesced: live=%d sent=%d", live, sum)
		}
		time.Sleep(100 * time.Millisecond)
	}
	var b strings.Builder
	if _, err := fleet.WriteExposition(&b, peersSnap); err != nil {
		t.Fatal(err)
	}
	merged := b.String()
	if want := fmt.Sprintf("node_messages_sent_total %d\n", sum); !strings.Contains(merged, want) {
		t.Fatalf("merged exposition does not carry the per-process sum %d:\n%s", sum, merged)
	}
	if !strings.Contains(merged, `fleet_peer_up{proc="dead"} 0`) ||
		!strings.Contains(merged, `fleet_peer_up{proc="w1"} 1`) {
		t.Fatalf("merged exposition liveness wrong:\n%s", merged)
	}
	h, ok := fleet.MergeHistograms(peersSnap, "daemon_query_latency_ms")
	if !ok || h.Count != queries {
		t.Fatalf("merged latency histogram count = %d (ok=%v), want one observation per query (%d)",
			h.Count, ok, queries)
	}
}

// TestSlowQueryLog pins the slow-query dump: with a threshold every query
// exceeds, the daemon logs the query at warn level followed by its trace
// ring — which must carry the lifecycle events the tracer recorded.
func TestSlowQueryLog(t *testing.T) {
	var out bytes.Buffer
	log := &syncBuffer{}
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", "40", "-seed", "7",
		"-query", "-hq", "0", "-agg", "count",
		"-hop", testHop.String(),
		"-slow-query", "1ns",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	cfg.LogOut = log
	if err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	got := log.String()
	if !strings.Contains(got, `msg="slow query"`) || !strings.Contains(got, "inflight=0") {
		t.Fatalf("no slow-query warn line with the query's outstanding work in log:\n%s", got)
	}
	if !strings.Contains(got, `msg="slow query trace"`) || !strings.Contains(got, "event=issued") {
		t.Fatalf("slow-query dump missing the trace ring (want an event=issued entry):\n%s", got)
	}
	if !strings.Contains(got, "event=answered") {
		t.Fatalf("slow-query dump missing the answered event:\n%s", got)
	}
}

// TestSlowQueryQuietByDefault pins the default threshold: a healthy
// in-process query converges well inside 1.5× its deadline, so the log
// stays free of slow-query warnings.
func TestSlowQueryQuietByDefault(t *testing.T) {
	var out bytes.Buffer
	log := &syncBuffer{}
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", "40", "-seed", "7",
		"-query", "-hq", "0", "-agg", "count",
		"-hop", testHop.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	cfg.LogOut = log
	if err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(log.String(), "slow query") {
		t.Fatalf("healthy query logged as slow:\n%s", log.String())
	}
}

// TestMetricsBadAddress pins fail-fast: a daemon asked to expose metrics
// on an unusable address must refuse to run unobservable.
func TestMetricsBadAddress(t *testing.T) {
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", "10", "-seed", "1",
		"-query", "-hq", "0",
		"-hop", testHop.String(),
		"-metrics", "256.256.256.256:99999",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = io.Discard
	cfg.LogOut = io.Discard
	if err := Run(cfg); err == nil {
		t.Fatal("unusable -metrics address accepted")
	}
}

// TestLogLevelFiltering pins -log-level: error suppresses the info-level
// metrics announcement, and an unknown level is rejected.
func TestLogLevelFiltering(t *testing.T) {
	var out bytes.Buffer
	log := &syncBuffer{}
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", "10", "-seed", "1",
		"-query", "-hq", "0",
		"-hop", testHop.String(),
		"-metrics", "127.0.0.1:0",
		"-log-level", "error",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	cfg.LogOut = log
	if err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(log.String(), "metrics listening") {
		t.Fatalf("-log-level error leaked an info line:\n%s", log.String())
	}
	cfg2, err := ParseArgs("validityd", []string{"-transport", "chan", "-log-level", "loud"})
	if err != nil {
		t.Fatal(err)
	}
	cfg2.Out = io.Discard
	cfg2.LogOut = io.Discard
	if err := Run(cfg2); err == nil || !strings.Contains(err.Error(), "unknown log level") {
		t.Fatalf("unknown -log-level accepted (err=%v)", err)
	}
}
