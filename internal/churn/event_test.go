package churn

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"validity/internal/graph"
	"validity/internal/sim"
)

// TestIndexMultiSession pins the span semantics of the timeline index: a
// host with several sessions (leave, rejoin, leave) answers AliveAt per
// session, is never PresentThroughout an interval spanning an absence,
// and AliveDuring sees any overlap.
func TestIndexMultiSession(t *testing.T) {
	tl := Timeline{
		{H: 1, T: 10},             // leave
		{H: 1, T: 20, Kind: Join}, // rejoin
		{H: 1, T: 35},             // leave again
		{H: 2, T: 5, Kind: Join},  // late joiner: absent on [0, 5)
		{H: 3, T: 0},              // gone from the very first tick
	}
	ix := tl.Index()

	aliveCases := []struct {
		h    graph.HostID
		t    sim.Time
		want bool
	}{
		{1, 0, true}, {1, 9, true}, {1, 10, false}, {1, 19, false},
		{1, 20, true}, {1, 34, true}, {1, 35, false}, {1, 1000, false},
		{2, 0, false}, {2, 4, false}, {2, 5, true}, {2, 1000, true},
		{3, 0, false}, {3, 7, false},
		{9, 0, true}, {9, 999, true}, // unmentioned host: always a member
	}
	for _, tc := range aliveCases {
		if got := ix.AliveAt(tc.h, tc.t); got != tc.want {
			t.Errorf("AliveAt(%d, %d) = %t, want %t", tc.h, tc.t, got, tc.want)
		}
	}

	if !ix.AliveDuring(1, 15, 25) { // rejoins inside the interval
		t.Error("AliveDuring missed a rejoin inside the interval")
	}
	if ix.AliveDuring(1, 12, 18) { // fully inside the absence
		t.Error("AliveDuring(1, 12, 18) true during an absence")
	}
	if ix.PresentThroughout(1, 5, 25) {
		t.Error("PresentThroughout spanned an absence")
	}
	if !ix.PresentThroughout(1, 20, 34) {
		t.Error("PresentThroughout rejected a full second session")
	}
	if ix.PresentThroughout(2, 0, 10) {
		t.Error("a late joiner cannot be present from tick 0")
	}
	if !ix.PresentThroughout(2, 5, 1000) {
		t.Error("a joined host present ever after was rejected")
	}

	if ix.InitialMember(2) || !ix.InitialMember(1) || !ix.InitialMember(3) || !ix.InitialMember(9) {
		t.Error("InitialMember wrong: only the first-event-Join host is late")
	}
	if ix.ArriveTime(1) != 0 || ix.ArriveTime(2) != 5 || ix.ArriveTime(9) != 0 {
		t.Errorf("ArriveTime = %d, %d, %d; want 0, 5, 0",
			ix.ArriveTime(1), ix.ArriveTime(2), ix.ArriveTime(9))
	}
	if ix.FailTime(1) != 10 || ix.FailTime(2) != -1 || ix.FailTime(3) != 0 {
		t.Error("FailTime must stay the first departure")
	}
	if got := ix.Hosts(); !reflect.DeepEqual(got, []graph.HostID{1, 2, 3}) {
		t.Errorf("Hosts() = %v, want [1 2 3]", got)
	}
	// Normalized transitions: no-ops dropped, order preserved.
	if evs := ix.HostEvents(1); len(evs) != 3 || evs[1].Kind != Join || evs[1].T != 20 {
		t.Errorf("HostEvents(1) = %v", evs)
	}
}

// TestIndexSameTickLeaveJoin pins the tie rule: at one tick a Leave
// applies before a Join (the event loop's evFail < evJoin), so the pair
// nets to presence.
func TestIndexSameTickLeaveJoin(t *testing.T) {
	ix := Timeline{
		{H: 1, T: 8, Kind: Join}, // listed join-first on purpose
		{H: 1, T: 8},
	}.Index()
	if !ix.AliveAt(1, 8) || !ix.AliveAt(1, 100) {
		t.Fatal("leave+join at one tick must net to presence")
	}
	if ix.AliveAt(1, 7) != true {
		t.Fatal("the host was an initial member before the tie tick")
	}
	if ix.PresentThroughout(1, 0, 100) {
		t.Fatal("the membership still lapsed at the tie tick")
	}
}

// TestIndexNoOpEventsDropped: joins while present and leaves while
// absent change nothing and are dropped from the normalized transitions.
func TestIndexNoOpEventsDropped(t *testing.T) {
	ix := Timeline{
		{H: 4, T: 2},             // leave
		{H: 4, T: 5, Kind: Join}, // rejoin
		{H: 4, T: 6, Kind: Join}, // join while present: no-op
		{H: 4, T: 9},             // leave
		{H: 4, T: 10},            // leave while absent: no-op
	}.Index()
	want := Timeline{{H: 4, T: 2}, {H: 4, T: 5, Kind: Join}, {H: 4, T: 9}}
	if evs := ix.HostEvents(4); !reflect.DeepEqual(evs, want) {
		t.Fatalf("HostEvents normalized to %v, want %v", evs, want)
	}
	if !ix.InitialMember(4) {
		t.Fatal("host 4's first event is a leave; it is an initial member")
	}
}

// TestSessionTimelineRebirth: with a rejoin mean, hosts cycle
// leave/join/leave sessions.
func TestSessionTimelineRebirth(t *testing.T) {
	const n, horizon = 300, 2000
	tl := SessionTimeline(n, 0, 100, 50, horizon, rand.New(rand.NewSource(9)))
	joins, leaves := 0, 0
	for _, e := range tl {
		if e.H == 0 {
			t.Fatal("protected host scheduled")
		}
		if e.T > horizon {
			t.Fatal("event beyond horizon")
		}
		if e.Kind == Join {
			joins++
		} else {
			leaves++
		}
	}
	if joins == 0 {
		t.Fatal("rebirth produced no joins")
	}
	if leaves <= joins {
		// Every join is preceded by that host's leave, so leaves lead.
		t.Fatalf("leaves %d not ahead of joins %d", leaves, joins)
	}
	// Per-host sanity: events alternate leave/join in time order.
	ix := tl.Index()
	for _, h := range ix.Hosts() {
		evs := ix.HostEvents(h)
		for i, e := range evs {
			wantJoin := i%2 == 1 // initial member: first transition is a leave
			if (e.Kind == Join) != wantJoin {
				t.Fatalf("host %d transition %d = %v; sessions must alternate", h, i, evs)
			}
		}
	}
	// Determinism across processes.
	again := SessionTimeline(n, 0, 100, 50, horizon, rand.New(rand.NewSource(9)))
	if !reflect.DeepEqual(tl, again) {
		t.Fatal("session timeline not deterministic for equal seeds")
	}
}

// TestBurstSource: a contiguous range leaves at one tick, protect
// survives, and the horizon gates the whole burst.
func TestBurstSource(t *testing.T) {
	b := Burst{From: 10, To: 14, At: 7}
	tl := b.Schedule(123, 12, 100)
	if len(tl) != 4 {
		t.Fatalf("burst scheduled %d departures, want 4 (range minus protect): %v", len(tl), tl)
	}
	for _, e := range tl {
		if e.H == 12 {
			t.Fatal("protected host scheduled in the burst")
		}
		if e.H < 10 || e.H > 14 || e.T != 7 || e.Kind != Leave {
			t.Fatalf("burst event %v outside the spec", e)
		}
	}
	if got := b.Schedule(1, 0, 5); got != nil {
		t.Fatalf("burst past the horizon still scheduled: %v", got)
	}
	if other := b.Schedule(999, 12, 100); !reflect.DeepEqual(other, tl) {
		t.Fatal("burst depends on the seed")
	}
}

// TestParseSourceJoinAndBurst extends the grammar table to the new
// knobs.
func TestParseSourceJoinAndBurst(t *testing.T) {
	cases := []struct {
		spec    string
		want    Source
		wantErr bool
	}{
		{spec: "model=sessions,mean=80,join=40", want: Sessions{N: 60, Mean: 80, Rejoin: 40}},
		{spec: "model=sessions,mean=80,join=40,window=30", want: Sessions{N: 60, Mean: 80, Window: 30, Rejoin: 40}},
		{spec: "model=burst,hosts=10-19,at=7", want: Burst{From: 10, To: 19, At: 7}},
		{spec: " model=burst , hosts= 10-19 , at=7 ", want: Burst{From: 10, To: 19, At: 7}},
		{spec: "join=40", wantErr: true},                        // sessions knob without the model
		{spec: "rate=6,join=40", wantErr: true},                 // uniform has no rebirth
		{spec: "model=sessions,mean=80,join=0", wantErr: true},  // non-positive downtime
		{spec: "model=sessions,mean=80,join=-4", wantErr: true}, // negative downtime
		{spec: "model=burst,hosts=10-19", wantErr: true},        // burst needs at=
		{spec: "model=burst,at=7", wantErr: true},               // burst needs hosts=
		{spec: "model=burst,hosts=19-10,at=7", wantErr: true},   // inverted range
		{spec: "model=burst,hosts=10-60,at=7", wantErr: true},   // outside the network
		// A whole-network burst is legal: Schedule spares the protected
		// querying host, so H_C = {h_q} and the query is well-defined.
		{spec: "model=burst,hosts=0-59,at=7", want: Burst{From: 0, To: 59, At: 7}},
		{spec: "model=burst,hosts=10-19,at=7,rate=3", wantErr: true},
		{spec: "model=burst,hosts=10-19,at=7,window=5", wantErr: true},
		{spec: "hosts=10-19,at=7", wantErr: true}, // burst knobs without the model
	}
	for _, tc := range cases {
		got, err := ParseSource(tc.spec, 60)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSource(%q) accepted, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSource(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSource(%q) = %#v, want %#v", tc.spec, got, tc.want)
		}
	}
}

// TestParseEventsGrammar pins the -kill event grammar: bare host@tick
// departures, +host@tick joins, range and sign errors named.
func TestParseEventsGrammar(t *testing.T) {
	got, err := ParseEvents(" 3@5 , +4@9 , 3@12 ", 10)
	if err != nil {
		t.Fatal(err)
	}
	want := Timeline{{H: 3, T: 5}, {H: 4, T: 9, Kind: Join}, {H: 3, T: 12}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseEvents = %v, want %v", got, want)
	}
	if tl, err := ParseEvents("", 10); err != nil || tl != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", tl, err)
	}
	for spec, wrong := range map[string]string{
		"5":        "host@tick",
		"+5":       "host@tick",
		"x@3":      "x@3",
		"5@y":      "5@y",
		"10@3":     "outside",
		"+10@3":    "outside",
		"-1@3":     "outside",
		"5@-2":     "negative",
		"+ 5@nope": "5@nope",
	} {
		_, err := ParseEvents(spec, 10)
		if err == nil {
			t.Errorf("ParseEvents(%q) accepted, want error mentioning %q", spec, wrong)
			continue
		}
		if !strings.Contains(err.Error(), wrong) {
			t.Errorf("ParseEvents(%q) error %q does not mention %q", spec, err, wrong)
		}
	}
}

// TestTraceEventColumn: the optional third CSV column records joins, the
// three-column header is tolerated, and unknown events are named in the
// error.
func TestTraceEventColumn(t *testing.T) {
	got, err := ParseTrace(strings.NewReader(
		"host,tick,event\n# capture\n3,5,leave\n4,2,join\n3,9 , JOIN \n7,1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	want := Timeline{
		{H: 7, T: 1},
		{H: 4, T: 2, Kind: Join},
		{H: 3, T: 5},
		{H: 3, T: 9, Kind: Join},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTrace = %v, want %v", got, want)
	}
	if _, err := ParseTrace(strings.NewReader("3,5,rejoin\n"), 10); err == nil ||
		!strings.Contains(err.Error(), "rejoin") {
		t.Fatalf("unknown event column accepted or unnamed: %v", err)
	}
}

// TestApplyJoins runs a timeline with joins through the deterministic
// event loop: a late joiner is absent until its join, a rebirth resumes
// the same host, and Start runs exactly once per host.
func TestApplyJoins(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	tl := Timeline{
		{H: 1, T: 4},             // leave
		{H: 1, T: 8, Kind: Join}, // rebirth
		{H: 2, T: 6, Kind: Join}, // late joiner
	}
	// One fresh network per observation instant: Run starts handlers once
	// per call, so intermediate snapshots use their own simulations.
	build := func() (*sim.Network, []int) {
		nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1})
		starts := make([]int, 3)
		for h := 0; h < 3; h++ {
			nw.SetHandler(graph.HostID(h), startCounter{n: &starts[h]})
		}
		tl.Apply(nw)
		return nw, starts
	}

	nw, _ := build()
	if nw.Alive(2) {
		t.Fatal("late joiner alive before Run")
	}
	nw.Run(5)
	if nw.Alive(1) || nw.Alive(2) {
		t.Fatalf("at t=5: host 1 alive=%t (left at 4), host 2 alive=%t (joins at 6)",
			nw.Alive(1), nw.Alive(2))
	}

	nw, starts := build()
	nw.Run(10)
	if !nw.Alive(1) || !nw.Alive(2) {
		t.Fatalf("at t=10: host 1 alive=%t (rejoined at 8), host 2 alive=%t (joined at 6)",
			nw.Alive(1), nw.Alive(2))
	}
	if starts[0] != 1 || starts[1] != 1 || starts[2] != 1 {
		t.Fatalf("Start counts = %v, want exactly one per host (rebirth must not re-run it)", starts)
	}
}

type startCounter struct{ n *int }

func (s startCounter) Start(ctx *sim.Context)                    { *s.n++ }
func (s startCounter) Receive(ctx *sim.Context, msg sim.Message) {}
func (s startCounter) Timer(ctx *sim.Context, tag int)           {}
