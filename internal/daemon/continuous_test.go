package daemon

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"validity/internal/agg"
	"validity/internal/protocol"
	"validity/internal/stream"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

var windowLineRe = regexp.MustCompile(
	`validityd: q=(\d+) window=(\d+) span=\[(\d+),(\d+)\) agg=(\w+) hq=(\d+) pop=(\d+) result=([0-9.]+) lower=([0-9.]+) upper=([0-9.]+) matched=\[[0-9.]+,[0-9.+Inf]+\] valid=(true|false) msgs=([0-9]+) bytes=([0-9]+) lat=([0-9]+)ms`)

// TestContinuousFlagsRejected extends the flag-validation contract to the
// streaming mode.
func TestContinuousFlagsRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"windows without continuous", []string{"-query", "-windows", "4"}, "-windows"},
		{"window without continuous", []string{"-query", "-window", "24"}, "-windows"},
		{"continuous with queries", []string{"-query", "-continuous", "-queries", "4"}, "-queries"},
		{"continuous with concurrency", []string{"-query", "-continuous", "-concurrency", "2"}, "-concurrency"},
		{"negative windows", []string{"-query", "-continuous", "-windows", "-1"}, "-windows"},
		{"window below 4.2 bound", []string{"-query", "-continuous", "-dhat", "12", "-window", "5"}, "window"},
		{"continuous kill of hq", []string{"-query", "-continuous", "-hq", "0", "-kill", "0@3"}, "outlive"},
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

// TestInProcessContinuousStream answers a churned continuous COUNT fully
// in process: one windowed query, every window line valid against its own
// bounds, windows in order, and a windows/sec summary.
func TestInProcessContinuousStream(t *testing.T) {
	var out bytes.Buffer
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", "60", "-seed", "23",
		"-query", "-continuous", "-windows", "4",
		"-hq", "0", "-agg", "count",
		"-churn", "rate=9",
		"-hop", testHop.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	if err := Run(cfg); err != nil {
		t.Fatalf("continuous stream failed: %v\n%s", err, out.String())
	}
	lines := windowLineRe.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 4 {
		t.Fatalf("got %d window lines, want 4:\n%s", len(lines), out.String())
	}
	for i, m := range lines {
		if w, _ := strconv.Atoi(m[2]); w != i {
			t.Fatalf("window %s at position %d; windows must stream in order:\n%s", m[2], i, out.String())
		}
		if m[11] != "true" {
			t.Fatalf("window %s judged invalid:\n%s", m[2], out.String())
		}
	}
	if !strings.Contains(out.String(), "windows/sec") {
		t.Fatalf("no windows/sec summary:\n%s", out.String())
	}
}

// TestContinuousTCPStream is the acceptance demo of the streaming
// subsystem: a three-process fleet on loopback streams a continuous COUNT
// under churn. Every window result arrives in order, each line carries
// the window's own H_C/H_U bounds and valid=true, the bounds match an
// independent recomputation of each window's membership from the shared
// flags alone (no churn or window coordination on the wire — workers
// regenerate everything from seed + query id + window index), and the
// shrinking population shows up as a shrinking per-window upper bound.
func TestContinuousTCPStream(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and streams wall-clock windows")
	}
	const windows = 5
	ports := freeAddrs(t, 3)
	peers := fmt.Sprintf("0-19=%s,20-39=%s,40-59=%s", ports[0], ports[1], ports[2])
	common := []string{
		"-transport", "tcp",
		"-topology", "random", "-hosts", "60", "-seed", "23",
		"-peers", peers,
		"-agg", "count",
		"-hq", "0",
		"-dhat", "12",
		"-continuous", "-windows", strconv.Itoa(windows), "-window", "24",
		// Churn on the stream's absolute clock: 12 departures spread over
		// the whole 5·24-tick run, so later windows open with fewer hosts.
		"-churn", "rate=12",
		"-kill", "29@4",
		"-hop", testHop.String(),
	}

	// Workers are handed the same flags minus -query, exactly like the
	// one-shot fleets: nothing worker-specific is needed for windows to
	// materialize on first contact.
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
	args := append(append([]string{}, common...), "-serve", "0-19", "-query")
	cfg, err := ParseArgs("validityd", args)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	if err := Run(cfg); err != nil {
		t.Fatalf("continuous stream failed: %v\n%s", err, out.String())
	}

	lines := windowLineRe.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != windows {
		t.Fatalf("got %d window lines, want %d:\n%s", len(lines), windows, out.String())
	}

	// Recompute every window's bounds independently, as any process of the
	// fleet can: the same flags derive the same plan, whose absolute
	// schedule slices into the same per-window membership.
	g := topology.Generate(topology.Random, 60, 23)
	values := zipfval.Default(23).Values(60)
	cfgA, planA := planFromArgs(t, append(append([]string{}, common...), "-serve", "0-19"), 60)
	splan := &stream.Plan{
		Query: 1,
		Spec: protocol.Query{
			Kind:   agg.Count,
			Hq:     0,
			DHat:   12,
			Params: agg.Params{Vectors: cfgA.Vectors, Bits: 32},
		},
		WindowLen: 24,
		Windows:   windows,
		Seed:      cfgA.Seed,
		Static:    planA.static,
		Source:    planA.src,
	}
	var uppers []float64
	for i, m := range lines {
		if w, _ := strconv.Atoi(m[2]); w != i {
			t.Fatalf("window %s arrived at position %d; windows must stream in order:\n%s", m[2], i, out.String())
		}
		if m[11] != "true" {
			t.Fatalf("window %s judged invalid:\n%s", m[2], out.String())
		}
		wantStart, wantEnd := int64(i)*24, int64(i+1)*24
		if s, _ := strconv.ParseInt(m[3], 10, 64); s != wantStart {
			t.Fatalf("window %d span starts at %d, want %d", i, s, wantStart)
		}
		if e, _ := strconv.ParseInt(m[4], 10, 64); e != wantEnd {
			t.Fatalf("window %d span ends at %d, want %d", i, e, wantEnd)
		}
		lo, _ := strconv.ParseFloat(m[9], 64)
		hi, _ := strconv.ParseFloat(m[10], 64)
		b, err := splan.Bounds(g, values, i)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%.2f", b.LowerValue) != fmt.Sprintf("%.2f", lo) ||
			fmt.Sprintf("%.2f", b.UpperValue) != fmt.Sprintf("%.2f", hi) {
			t.Fatalf("window %d bounds [%.2f, %.2f] do not match an independent recomputation [%.2f, %.2f]",
				i, lo, hi, b.LowerValue, b.UpperValue)
		}
		if msgs, _ := strconv.ParseInt(m[12], 10, 64); msgs == 0 {
			t.Fatalf("window %d reports zero messages:\n%s", i, out.String())
		}
		uppers = append(uppers, hi)
	}
	// The churn spans the whole stream, so the population — and with it
	// each window's own upper COUNT bound — must shrink across windows.
	for i := 1; i < len(uppers); i++ {
		if uppers[i] > uppers[i-1] {
			t.Fatalf("window %d upper bound %v above window %d's %v; H_U may never grow without joins",
				i, uppers[i], i-1, uppers[i-1])
		}
	}
	if uppers[len(uppers)-1] >= uppers[0] {
		t.Fatalf("upper bounds never shrank (%v); churn did not bite across windows", uppers)
	}
	if !strings.Contains(out.String(), "windows/sec") {
		t.Fatalf("no windows/sec summary:\n%s", out.String())
	}
}
