package daemon

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/node"
	"validity/internal/oracle"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// planFromArgs builds the membership plan exactly as one validityd
// process would from its flags.
func planFromArgs(t *testing.T, args []string, n int) (*Config, *churnPlan) {
	t.Helper()
	cfg, err := ParseArgs("validityd", args)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := newChurnPlan(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, plan
}

// TestDerivedSchedulesIdenticalAcrossProcesses pins the membership
// layer's no-coordination contract at the daemon level: two processes
// parsing the same flags derive byte-identical per-query schedules from
// seed + id alone, every query gets a different schedule, and no schedule
// ever touches the query's own h_q.
func TestDerivedSchedulesIdenticalAcrossProcesses(t *testing.T) {
	args := []string{"-seed", "23", "-churn", "rate=6,window=12", "-kill", "29@4"}
	const n, hq, deadline = 60, 0, 24
	_, planA := planFromArgs(t, args, n)
	_, planB := planFromArgs(t, args, n)

	var schedules []churn.Timeline
	for id := node.QueryID(1); id <= 8; id++ {
		a := planA.forQuery(id, hq, deadline)
		b := planB.forQuery(id, hq, deadline)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: processes derived different schedules:\n%v\n%v", id, a, b)
		}
		if len(a) != 7 { // 6 churned + 1 static kill
			t.Fatalf("query %d: schedule has %d failures, want 7: %v", id, len(a), a)
		}
		ix := a.Index()
		if ix.FailTime(hq) >= 0 {
			t.Fatalf("query %d: querying host scheduled to fail", id)
		}
		if ix.FailTime(29) != 4 {
			t.Fatalf("query %d: static -kill entry missing: %v", id, a)
		}
		schedules = append(schedules, a)
	}
	for i := range schedules {
		for j := i + 1; j < len(schedules); j++ {
			if reflect.DeepEqual(schedules[i], schedules[j]) {
				t.Fatalf("queries %d and %d derived identical churn schedules", i+1, j+1)
			}
		}
	}
}

// TestChurnedInProcessQueryStream lifts the old single-query -kill
// restriction: a concurrent stream runs with both explicit kills and a
// generated churn model, and every query is judged valid against the
// bounds of its own membership timeline.
func TestChurnedInProcessQueryStream(t *testing.T) {
	var out bytes.Buffer
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", "60", "-seed", "23",
		"-query", "-hq", "0,7", "-agg", "count,min",
		"-queries", "6", "-concurrency", "2",
		"-churn", "rate=6,window=12",
		"-kill", "29@4",
		"-hop", testHop.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	if err := Run(cfg); err != nil {
		t.Fatalf("churned stream failed: %v\n%s", err, out.String())
	}
	lines := streamLineRe.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 6 {
		t.Fatalf("got %d result lines, want 6:\n%s", len(lines), out.String())
	}
	widened := false
	for _, m := range lines {
		if m[4] != "true" {
			t.Fatalf("a churned query was judged invalid:\n%s", out.String())
		}
	}
	// Churn must actually bite: count queries lose the churned hosts from
	// H_C, so their lower bound sits below the static-network value 60.
	countLower := regexp.MustCompile(`agg=count hq=\d+ result=[0-9.]+ lower=([0-9.]+)`)
	for _, m := range countLower.FindAllStringSubmatch(out.String(), -1) {
		lo, _ := strconv.ParseFloat(m[1], 64)
		if lo < 60 {
			widened = true
		}
	}
	if !widened {
		t.Fatalf("no count query saw churn-widened bounds:\n%s", out.String())
	}
}

var latRe = regexp.MustCompile(`validityd: q=(\d+) agg=\w+ hq=\d+ result=[0-9.]+ lower=([0-9.]+) upper=([0-9.]+) slack=[0-9.]+ valid=(true|false) msgs=[0-9]+ bytes=[0-9]+ maxproc=[0-9]+ timecost=[0-9]+ lat=([0-9]+)ms`)

// TestConcurrentTCPChurnedQueryStream is the acceptance demo of the
// membership layer: a three-process fleet on loopback answers 8
// overlapping queries while every query sees its own derived churn
// schedule (plus a shared static kill), with workers regenerating the
// schedules from seed alone. Each printed bound pair must equal the
// oracle bounds this process computes from that query's own timeline, and
// — thanks to the warm-up dials at boot — the first query's latency must
// sit within 2× of the median.
func TestConcurrentTCPChurnedQueryStream(t *testing.T) {
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
		"-dhat", "12",
		"-churn", "rate=6,window=12",
		"-kill", "29@4",
		"-hop", testHop.String(),
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
		t.Fatalf("churned query stream failed: %v\n%s", err, out.String())
	}

	lines := latRe.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 8 {
		t.Fatalf("got %d result lines, want 8:\n%s", len(lines), out.String())
	}

	// Recompute every query's oracle bounds from its derived schedule, as
	// any process of the fleet can: the printed bounds must match its own
	// timeline's H_C/H_U exactly.
	g := topology.Generate(topology.Random, 60, 23)
	values := zipfval.Default(23).Values(60)
	_, plan := planFromArgs(t, common, 60)
	if !plan.active() {
		t.Fatal("membership plan inactive despite -churn and -kill")
	}
	var lats []float64
	latByQuery := make(map[int]float64)
	for _, m := range lines {
		id, _ := strconv.Atoi(m[1])
		lo, _ := strconv.ParseFloat(m[2], 64)
		hi, _ := strconv.ParseFloat(m[3], 64)
		if m[4] != "true" {
			t.Fatalf("churned query %d judged invalid:\n%s", id, out.String())
		}
		kind, hq := agg.Count, graph.HostID(0)
		if id%2 == 0 {
			kind, hq = agg.Min, 7
		}
		sched := plan.forQuery(node.QueryID(id), hq, 24) // deadline 2·D̂ = 24
		b := oracle.Compute(g, values, hq, sched, 24, kind)
		if fmt.Sprintf("%.2f", b.LowerValue) != fmt.Sprintf("%.2f", lo) ||
			fmt.Sprintf("%.2f", b.UpperValue) != fmt.Sprintf("%.2f", hi) {
			t.Fatalf("query %d bounds [%.2f, %.2f] do not match its own timeline's [%.2f, %.2f]",
				id, lo, hi, b.LowerValue, b.UpperValue)
		}
		lat, _ := strconv.ParseFloat(m[5], 64)
		lats = append(lats, lat)
		latByQuery[id] = lat
	}
	// Adaptive result reads: latencies now track convergence, not the
	// worst-case deadline. The median answer must beat the hard cap by a
	// clear margin — more than half the stream returned at quiescence
	// instead of sleeping out the full budget (a broken quiescence poll
	// reads at the cap, never under it). Under the race detector the
	// protocols legitimately use most of their widened deadline, so the
	// margin is a couple of hops, not a fraction of the cap.
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	capMs := float64((2*12*testHop + 10*testHop + 100*time.Millisecond).Milliseconds())
	if margin := float64((2 * testHop).Milliseconds()); median > capMs-margin {
		t.Fatalf("median latency %vms within %vms of the %vms hard cap: adaptive reads never bit", median, margin, capMs)
	}
	// Warm-up dials: the cold fleet's first query converges like the rest
	// (within 3× of the median — convergence time varies where deadline
	// pacing did not). A cold-dial regression would push query 1 to the
	// cap while the warm median stays low; the dial behavior itself is
	// pinned at the transport layer (TestTCPWarmPreDials) and at runtime
	// boot (TestRuntimeWarmsTransportAtStart).
	if first := latByQuery[1]; first > 3*median {
		t.Fatalf("first query latency %vms exceeds 3× median %vms: warm-up dials not effective", first, median)
	}
}
