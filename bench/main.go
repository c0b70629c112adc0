// Command bench is the repository's benchmark: five workloads over the
// engine and the simulator (four of them listed in BENCHMARK.json), ten
// end-to-end metrics per workload, and a separate traced run that
// attributes cost to the layers. See README.md in this directory for
// every metric, workload and mode.
//
//	go run ./bench                                   all workloads, end-to-end metrics
//	go run ./bench -trace 1                          all workloads, per-layer metrics
//	go run ./bench -workload NAME -seed N -seconds S -trace 0|1
//	go run ./bench -compare DIR_A DIR_B              judge two sets of -out files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is one invocation's settings.
type options struct {
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

// stamp is the environment a set of numbers was taken in; every wall-clock
// metric is relative to it.
type stamp struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	Ops        map[string]int `json:"ops"`
	Network    string         `json:"network"`
}

// report is what -out writes and -compare reads.
type report struct {
	Env       stamp     `json:"env"`
	Workloads []*result `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all, as a table)")
		seed    = flag.Int64("seed", 23, "drives topology, values, churn and FM coins")
		seconds = flag.Int("seconds", 20, "run length: every workload issues rate × seconds ops")
		trace   = flag.Int("trace", 0, "1 = the traced per-layer run instead of the end-to-end run")
		dumpDir = flag.String("trace-out", "bench_trace", "directory the traced run writes its span dumps to")
		out     = flag.String("out", "", "also write the results as JSON to this file (the input of -compare)")
		cmp     = flag.Bool("compare", false, "compare two sets of -out files: bench -compare DIR_A DIR_B")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare DIR_A DIR_B (each a directory of -out files, or a comma-separated list of them)")
		}
		os.Exit(compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || *seconds > 60 {
		fatal("-seconds must be in 1..60")
	}
	if *trace != 0 && *trace != 1 {
		fatal("-trace takes 0 or 1")
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *dumpDir}

	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		todo = []*workload{w}
	}
	rep := report{Env: environment(o, todo)}
	printStamp(rep.Env)
	broken := 0
	for _, w := range todo {
		res, err := guarded(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			broken++
			continue
		}
		rep.Workloads = append(rep.Workloads, res)
		printResult(res, o.trace)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fatal("writing %s: %v", *out, err)
		}
	}
	if broken > 0 {
		os.Exit(1)
	}
	if *name != "" {
		printContractLine(rep.Workloads[0], o.trace)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// guarded runs one workload under a watchdog of three times its expected
// wall, so a wedged fleet fails that workload with a message instead of
// hanging the benchmark.
func guarded(w *workload, o options) (*result, error) {
	type outcome struct {
		res *result
		err error
	}
	done := make(chan outcome, 1) // the worker must never block on a departed watchdog
	go func() {
		res, err := runWorkload(w, o)
		done <- outcome{res, err}
	}()
	limit := 3 * (time.Duration(o.seconds)*time.Second*2 + 30*time.Second)
	select {
	case r := <-done:
		return r.res, r.err
	case <-time.After(limit):
		return nil, fmt.Errorf("%s: no result after %v (3× the expected wall); its goroutines are abandoned", w.name, limit)
	}
}

// runWorkload produces one workload's end-to-end result, or — traced —
// its per-layer result. The traced run first repeats the workload
// untraced at the same reduced op count, so the overhead of the
// instrumentation is measured rather than assumed.
func runWorkload(w *workload, o options) (*result, error) {
	// A box slower than the reference one stops issuing ops at 1.6× the
	// run length instead of overrunning without bound.
	capWall := time.Duration(o.seconds) * time.Second * 16 / 10
	if !o.trace {
		m, err := measure(w, o.seed, w.ops(o.seconds), 3, capWall, nil)
		if err != nil {
			return nil, err
		}
		return m.report(w.name)
	}
	n := w.tracedOps(o.seconds)
	plain, err := measure(w, o.seed, n, 1, capWall, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.hosts, w.hop, w.static)
	traced, err := measure(w, o.seed, n, 1, capWall, tr)
	if err != nil {
		return nil, err
	}
	res, err := traced.report(w.name)
	if err != nil {
		return nil, err
	}
	res.Metrics = layerMetrics(w, tr, traced)
	for name, v := range runProbes(o.seed) {
		res.Metrics[name] = v
	}
	res.Metrics["process.cpu_ms_per_op"] = plain.cpuMsPerOp()
	res.Metrics["trace.overhead_pct"] = 100 * (traced.cpuMsPerOp() - plain.cpuMsPerOp()) / plain.cpuMsPerOp()
	if o.traceOut != "" {
		path, err := tr.writeDump(o.traceOut, w.name)
		if err != nil {
			return nil, fmt.Errorf("%s: span dump: %w", w.name, err)
		}
		fmt.Printf("%s: span dump of the first %d ops written to %s\n", w.name, dumpOps, path)
	}
	return res, nil
}

func environment(o options, todo []*workload) stamp {
	s := stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
		Ops:        map[string]int{},
		Network:    "loopback only: tcp60_static measures the codec and the socket path, not a real link",
	}
	for _, w := range todo {
		s.Ops[w.name] = w.ops(o.seconds)
		if o.trace {
			s.Ops[w.name] = w.tracedOps(o.seconds)
		}
	}
	return s
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printStamp(s stamp) {
	fmt.Printf("bench: %s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d seconds=%d traced=%t\n",
		s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPUModel, s.Seed, s.Seconds, s.Traced)
	fmt.Printf("bench: ops %v; %s\n", s.Ops, s.Network)
}

// reported is the metric list a run prints: end-to-end metrics come only
// from untraced runs, per-layer metrics only from traced ones.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printResult(r *result, traced bool) {
	fmt.Printf("%s: attempted=%d failed=%d invalid=%d", r.Workload, r.Attempted, r.Failed, r.Invalid)
	if len(r.Reasons) > 0 {
		keys := make([]string, 0, len(r.Reasons))
		for k := range r.Reasons {
			keys = append(keys, fmt.Sprintf("%s=%d", k, r.Reasons[k]))
		}
		sort.Strings(keys)
		fmt.Printf(" (%s)", strings.Join(keys, ", "))
	}
	fmt.Println()
	for _, d := range reported(traced) {
		fmt.Printf("  %-32s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
}

// printContractLine ends a single-workload run with the one JSON object
// the benchmark driver parses: every end-to-end metric of an untraced
// run, every per-layer metric of a traced one.
func printContractLine(r *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		// failed counts the ops the program did not answer (error, rejection,
		// no result, an undelivered window) and the harness's own cross-checks
		// that did not hold; one of either makes the run incorrect. An answer
		// outside its oracle bounds is counted in valid_share instead — an FM
		// estimate a hair outside its slack, or a stall of the box turning a
		// handful of reads premature, is the run's measured quality, and no
		// two runs have the same stalls — until more than one answer in ten
		// is unsound, when what is left no longer stands for the workload.
		Correct:   r.Failed == 0 && r.Invalid*10 <= r.Attempted,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]value{},
	}
	for _, d := range reported(traced) {
		line.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(blob))
}
