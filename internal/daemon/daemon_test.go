package daemon

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
	"time"

	"validity/internal/churn"
)

// The multi-process test re-execs this test binary as validityd worker
// processes: TestMain diverts to daemon.Run when the marker variable is
// set, so real OS processes run the real daemon with zero build steps.
func TestMain(m *testing.M) {
	if args := os.Getenv("VALIDITYD_CHILD_ARGS"); args != "" {
		cfg, err := ParseArgs("validityd-child", splitArgs(args))
		if err == nil {
			err = Run(cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "validityd child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// splitArgs splits on the record separator so addresses with colons and
// commas pass through untouched.
func splitArgs(s string) []string {
	var out []string
	for _, f := range bytes.Split([]byte(s), []byte{0x1e}) {
		if len(f) > 0 {
			out = append(out, string(f))
		}
	}
	return out
}

func joinArgs(args []string) string {
	return string(bytes.Join(toBytes(args), []byte{0x1e}))
}

func toBytes(ss []string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

var resultRe = regexp.MustCompile(
	`validityd: q=\d+ agg=\w+ hq=\d+ result=([0-9.]+) lower=([0-9.]+) upper=([0-9.]+) matched=\[[0-9.]+,[0-9.+Inf]+\] valid=(true|false) msgs=([0-9]+) bytes=([0-9]+)`)

// parseReport extracts (result, lower, upper, valid) from Run's output.
func parseReport(t *testing.T, out string) (v, lo, hi float64, valid bool) {
	t.Helper()
	m := resultRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no result line in output:\n%s", out)
	}
	v, _ = strconv.ParseFloat(m[1], 64)
	lo, _ = strconv.ParseFloat(m[2], 64)
	hi, _ = strconv.ParseFloat(m[3], 64)
	valid = m[4] == "true"
	return v, lo, hi, valid
}

func TestInProcessChannelQuery(t *testing.T) {
	var out bytes.Buffer
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", "80", "-seed", "7",
		"-query", "-hq", "0", "-agg", "count",
		"-hop", testHop.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	if err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	v, lo, hi, valid := parseReport(t, out.String())
	if lo != 80 || hi != 80 {
		t.Fatalf("oracle bounds [%v, %v], want [80, 80]", lo, hi)
	}
	if !valid {
		t.Fatalf("in-process count %.1f judged invalid:\n%s", v, out.String())
	}
}

func TestInProcessChannelQueryWithKills(t *testing.T) {
	var out bytes.Buffer
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", "80", "-seed", "9",
		"-query", "-hq", "0", "-agg", "count",
		"-hop", testHop.String(),
		"-kill", "3@0,11@0,17@2,29@2,41@4",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	if err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	v, lo, hi, valid := parseReport(t, out.String())
	if lo >= hi {
		t.Fatalf("churn produced degenerate bounds [%v, %v]", lo, hi)
	}
	if !valid {
		t.Fatalf("count %.1f under churn judged invalid (bounds [%v, %v]):\n%s",
			v, lo, hi, out.String())
	}
}

// waitListening polls until addr accepts connections, so the query only
// starts once the serving processes are reachable.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("worker at %s never started listening", addr)
}

func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// TestMultiProcessTCPQuery is the acceptance demo: three OS processes on
// loopback — two re-exec'd workers plus this process — shard 60 hosts and
// complete a WILDFIRE COUNT over the TCP transport, with the estimate
// validated against the oracle's Single-Site Validity bounds.
func TestMultiProcessTCPQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and sleeps out a wall-clock query deadline")
	}
	ports := freeAddrs(t, 3)
	peers := fmt.Sprintf("0-19=%s,20-39=%s,40-59=%s", ports[0], ports[1], ports[2])
	common := []string{
		"-transport", "tcp",
		"-topology", "random", "-hosts", "60", "-seed", "23",
		"-peers", peers,
		"-agg", "count",
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
	args := append(append([]string{}, common...), "-serve", "0-19", "-query", "-hq", "0")
	cfg, err := ParseArgs("validityd", args)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	if err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	v, lo, hi, valid := parseReport(t, out.String())
	if lo != 60 || hi != 60 {
		t.Fatalf("oracle bounds [%v, %v], want [60, 60]", lo, hi)
	}
	if !valid {
		t.Fatalf("multi-process count %.1f judged invalid:\n%s", v, out.String())
	}
}

func TestParsePeersAndHostSets(t *testing.T) {
	addrs, err := parsePeers("0-2=a:1,3=b:2,4-5=c:3", 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a:1", "a:1", "a:1", "b:2", "c:3", "c:3"}
	for i, a := range addrs {
		if a != want[i] {
			t.Fatalf("addrs[%d] = %q, want %q", i, a, want[i])
		}
	}
	if _, err := parsePeers("0-2=a:1", 4); err == nil {
		t.Fatal("uncovered host accepted")
	}
	if _, err := parseHostSet("3-1", 6); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := parseKills("5@nope", 6); err == nil {
		t.Fatal("malformed kill accepted")
	}
	if _, err := parseKills("5@-1", 6); err == nil {
		t.Fatal("negative kill tick accepted; the engine would never execute it while the oracle counts the host dead")
	}
	if _, err := parseKills("+5@-1", 6); err == nil {
		t.Fatal("negative join tick accepted")
	}
	ks, err := parseKills("1@0, 2@7, +3@9", 6)
	if err != nil || len(ks) != 3 || ks[1].H != 2 || ks[1].T != 7 {
		t.Fatalf("parseKills = %v, %v", ks, err)
	}
	if ks[1].Kind != churn.Leave || ks[2].Kind != churn.Join || ks[2].H != 3 || ks[2].T != 9 {
		t.Fatalf("parseKills event kinds wrong: %v", ks)
	}
}
