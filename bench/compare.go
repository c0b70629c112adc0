package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// compareSets judges set B against set A, per (workload, end-to-end
// metric) pair, by the bounds of metrics.go: medians are compared, and a
// pair whose own run-to-run spread in either set is wider than its bound
// is reported unresolved rather than ok — the sets cannot tell a
// regression of that size from noise. The exit code is 1 if any pair
// regressed, 0 otherwise.
func compareSets(w io.Writer, argA, argB string) int {
	a, err := loadSet(argA)
	if err == nil && len(a) < 3 {
		err = fmt.Errorf("%s: %d result files, need at least 3 to take a spread", argA, len(a))
	}
	var b []report
	if err == nil {
		if b, err = loadSet(argB); err == nil && len(b) < 3 {
			err = fmt.Errorf("%s: %d result files, need at least 3 to take a spread", argB, len(b))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
		return 2
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.name, d.Name), values(b, wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judgePair(d, va, vb)
			counts[v.verdict]++
			fmt.Fprintf(w, "%-16s %-16s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, d.Name, v.medA, v.medB, 100*v.worse, 100*d.Bound, 100*v.spread, v.verdict)
		}
	}
	fmt.Fprintf(w, "ok=%d regressed=%d unresolved=%d\n", counts["ok"], counts["regressed"], counts["unresolved"])
	if counts["regressed"] > 0 {
		return 1
	}
	return 0
}

type pairVerdict struct {
	medA, medB float64
	worse      float64 // share of A's median by which B is worse (negative = better)
	spread     float64 // the wider of the two sets' own spreads
	verdict    string
}

func judgePair(d metricDef, a, b []float64) pairVerdict {
	v := pairVerdict{medA: median(a), medB: median(b)}
	if v.medA != 0 {
		v.worse = (v.medB - v.medA) / v.medA
		if d.Better == "higher" {
			v.worse = -v.worse
		}
	}
	v.spread = quartileSpread(a)
	if s := quartileSpread(b); s > v.spread {
		v.spread = s
	}
	switch {
	case v.spread > d.Bound:
		v.verdict = "unresolved"
	case v.worse > d.Bound:
		v.verdict = "regressed"
	default:
		v.verdict = "ok"
	}
	return v
}

func loadSet(arg string) ([]report, error) {
	files, err := resultFiles(arg)
	if err != nil {
		return nil, err
	}
	var set []report
	for _, path := range files {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Env.Traced {
			return nil, fmt.Errorf("%s: a traced run; end-to-end metrics are only ever taken untraced", path)
		}
		set = append(set, r)
	}
	return set, nil
}

// values collects one metric of one workload across a set's runs.
func values(set []report, workload, metric string) []float64 {
	var out []float64
	for _, r := range set {
		for _, res := range r.Workloads {
			if v, ok := res.Metrics[metric]; ok && res.Workload == workload {
				out = append(out, v)
			}
		}
	}
	return out
}

// resultFiles expands a -compare argument: a directory of *.json files or
// a comma-separated list of files.
func resultFiles(arg string) ([]string, error) {
	if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
		return filepath.Glob(filepath.Join(arg, "*.json"))
	}
	return strings.Split(arg, ","), nil
}
