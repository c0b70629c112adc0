package daemon

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
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
