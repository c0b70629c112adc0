package churn

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"validity/internal/graph"
	"validity/internal/sim"
)

// TestParseTraceGrammar pins the host,tick CSV grammar: departures parse
// in any order (the result is time-sorted), headers and comments and
// blank lines are skipped, and malformed or out-of-range lines fail with
// a message naming the line.
func TestParseTraceGrammar(t *testing.T) {
	cases := []struct {
		name  string
		input string
		n     int
		want  Timeline
		wrong string // non-empty: expect an error containing it
	}{
		{
			name:  "plain pairs",
			input: "3,5\n1,2\n",
			n:     10,
			want:  Timeline{{H: 1, T: 2}, {H: 3, T: 5}},
		},
		{
			name:  "header comments blanks and spaces",
			input: "host,tick\n# a capture\n\n 7 , 11 \n2,0\n",
			n:     10,
			want:  Timeline{{H: 2, T: 0}, {H: 7, T: 11}},
		},
		{
			name:  "uppercase header",
			input: "Host,Tick\n4,4\n",
			n:     10,
			want:  Timeline{{H: 4, T: 4}},
		},
		{
			name:  "header after provenance comment",
			input: "# exported 2026-07-28\n\nhost,tick\n3,5\n",
			n:     10,
			want:  Timeline{{H: 3, T: 5}},
		},
		{
			name:  "empty trace",
			input: "# nothing left\n",
			n:     10,
			want:  nil,
		},
		{
			name:  "same host twice keeps both (Index collapses)",
			input: "5,9\n5,3\n",
			n:     10,
			want:  Timeline{{H: 5, T: 3}, {H: 5, T: 9}},
		},
		{name: "missing comma", input: "5 9\n", n: 10, wrong: "host,tick"},
		{name: "non-numeric host", input: "x,9\n", n: 10, wrong: "host"},
		{name: "non-numeric tick", input: "5,y\n", n: 10, wrong: "tick"},
		{name: "host out of range", input: "10,1\n", n: 10, wrong: "outside"},
		{name: "negative host", input: "-1,1\n", n: 10, wrong: "outside"},
		{name: "negative tick", input: "5,-2\n", n: 10, wrong: "negative tick"},
		{name: "header not on first line", input: "1,1\nhost,tick\n", n: 10, wrong: "host"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseTrace(strings.NewReader(tc.input), tc.n)
			if tc.wrong != "" {
				if err == nil {
					t.Fatalf("parsed %q without error, want one mentioning %q", tc.input, tc.wrong)
				}
				if !strings.Contains(err.Error(), tc.wrong) {
					t.Fatalf("error %q does not mention %q", err, tc.wrong)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseTrace(%q): %v", tc.input, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseTrace(%q) = %v, want %v", tc.input, got, tc.want)
			}
		})
	}
}

// TestParseSourceTrace wires the trace=FILE spec through ParseSource: the
// file loads as a Static source (identical schedule for every query,
// filtered by each query's horizon), and generator knobs are rejected
// alongside it.
func TestParseSourceTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.csv")
	if err := os.WriteFile(path, []byte("host,tick\n4,2\n9,40\n1,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := ParseSource("trace="+path, 20)
	if err != nil {
		t.Fatal(err)
	}
	sched := src.Schedule(123, 0, 30) // seed must not matter; horizon drops 9@40
	want := Timeline{{H: 4, T: 2}, {H: 1, T: 7}}
	if !reflect.DeepEqual(sched, want) {
		t.Fatalf("trace schedule = %v, want %v", sched, want)
	}
	if other := src.Schedule(999, 0, 30); !reflect.DeepEqual(other, sched) {
		t.Fatalf("trace schedule depends on the seed: %v vs %v", other, sched)
	}
	if ix := src.Schedule(1, 0, sim.Time(100)).Index(); ix.FailTime(graph.HostID(9)) != 40 {
		t.Fatalf("horizon 100 should include 9@40: %v", ix)
	}
	// The Source protect contract holds for traces too: a capture naming
	// the querying host must not schedule it — the monitor outlives the
	// query regardless of what the session log recorded.
	if ix := src.Schedule(1, 4, 30).Index(); ix.FailTime(graph.HostID(4)) >= 0 {
		t.Fatalf("trace scheduled the protected querying host: %v", src.Schedule(1, 4, 30))
	}

	for _, bad := range []string{
		"trace=" + path + ",rate=3",
		"trace=" + path + ",model=sessions,mean=4",
		"trace=" + path + ",model=uniform", // explicit default model still conflicts
		"trace=" + path + ",window=9",
		"trace=",
		"trace=" + filepath.Join(t.TempDir(), "missing.csv"),
	} {
		if _, err := ParseSource(bad, 20); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
