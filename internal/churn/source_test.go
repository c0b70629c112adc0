package churn

import (
	"reflect"
	"testing"

	"validity/internal/graph"
	"validity/internal/sim"
)

// TestSourceDeterminism pins the membership layer's core contract: two
// Sources built independently from the same configuration (as two fleet
// processes would, from shared flags) derive byte-identical schedules for
// the same (seed, protect, horizon), and different query seeds derive
// different schedules.
func TestSourceDeterminism(t *testing.T) {
	const n, horizon = 200, 40
	for name, build := range map[string]func() Source{
		"uniform":  func() Source { return Uniform{N: n, Remove: 25} },
		"sessions": func() Source { return Sessions{N: n, Mean: 80} },
	} {
		t.Run(name, func(t *testing.T) {
			procA, procB := build(), build()
			for id := int64(1); id <= 4; id++ {
				seed := QuerySeed(23, id)
				a := procA.Schedule(seed, 0, horizon)
				b := procB.Schedule(seed, 0, horizon)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("query %d: processes derived different schedules:\n%v\n%v", id, a, b)
				}
				for _, f := range a {
					if f.H == 0 {
						t.Fatalf("query %d: protected host scheduled at %d", id, f.T)
					}
					if f.T > horizon {
						t.Fatalf("query %d: failure at %d beyond horizon %d", id, f.T, horizon)
					}
				}
			}
			s1 := procA.Schedule(QuerySeed(23, 1), 0, horizon)
			s2 := procA.Schedule(QuerySeed(23, 2), 0, horizon)
			if reflect.DeepEqual(s1, s2) {
				t.Fatal("distinct query seeds derived identical schedules")
			}
		})
	}
}

func TestQuerySeedDistinctFromSharedSeed(t *testing.T) {
	if QuerySeed(23, 1) == QuerySeed(23, 2) {
		t.Fatal("query seeds collide across ids")
	}
	if QuerySeed(23, 1) == QuerySeed(24, 1) {
		t.Fatal("query seeds collide across shared seeds")
	}
}

func TestStaticSourceFiltersHorizon(t *testing.T) {
	src := Static{{H: 3, T: 10}, {H: 5, T: 99}, {H: 4, T: 2}}
	got := src.Schedule(1, 0, 50)
	want := Timeline{{H: 4, T: 2}, {H: 3, T: 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Static.Schedule = %v, want %v", got, want)
	}
}

func TestMerge(t *testing.T) {
	got := Merge(Timeline{{H: 1, T: 9}}, Timeline{{H: 2, T: 3}, {H: 3, T: 9}})
	want := Timeline{{H: 2, T: 3}, {H: 1, T: 9}, {H: 3, T: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
}

func TestParseSource(t *testing.T) {
	cases := []struct {
		spec    string
		want    Source
		wantErr bool
	}{
		{spec: "", want: nil},
		{spec: "rate=0", want: nil},
		{spec: "rate=6", want: Uniform{N: 60, Remove: 6}},
		{spec: "rate=6,window=12", want: Uniform{N: 60, Remove: 6, Window: 12}},
		{spec: " rate=6 , window=12 ", want: Uniform{N: 60, Remove: 6, Window: 12}},
		{spec: "model=sessions,mean=80", want: Sessions{N: 60, Mean: 80}},
		{spec: "model=sessions,mean=80,window=30", want: Sessions{N: 60, Mean: 80, Window: 30}},
		{spec: "rate=60", wantErr: true}, // no survivors
		{spec: "rate=-1", wantErr: true},
		{spec: "rate=x", wantErr: true},
		{spec: "window=5", wantErr: true}, // uniform without rate
		{spec: "model=sessions", wantErr: true},
		{spec: "model=sessions,rate=3,mean=8", wantErr: true},
		{spec: "rate=6,mean=20", wantErr: true}, // mean is a sessions knob
		{spec: "mean=0", wantErr: true},
		{spec: "model=bursty,rate=3", wantErr: true},
		{spec: "bogus", wantErr: true},
		{spec: "hosts=9", wantErr: true},
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

func TestIndexMatchesScheduleScans(t *testing.T) {
	s := Timeline{{H: 7, T: 30}, {H: 3, T: 10}, {H: 7, T: 5}, {H: 9, T: 10}}
	ix := s.Index()
	for h := graph.HostID(0); h < 12; h++ {
		want := sim.Time(-1)
		for _, f := range s { // earliest, matching Index's collapse rule
			if f.H == h && (want < 0 || f.T < want) {
				want = f.T
			}
		}
		if got := ix.FailTime(h); got != want {
			t.Fatalf("Index.FailTime(%d) = %d, want %d", h, got, want)
		}
		for _, tt := range []sim.Time{0, 5, 10, 29, 30, 31} {
			wantAlive := want < 0 || want > tt
			if got := ix.AliveAt(h, tt); got != wantAlive {
				t.Fatalf("Index.AliveAt(%d, %d) = %t, want %t", h, tt, got, wantAlive)
			}
			if got := ix.Survives(h, tt); got != wantAlive {
				t.Fatalf("Index.Survives(%d, %d) = %t, want %t", h, tt, got, wantAlive)
			}
		}
	}
	if ix.Len() != 3 {
		t.Fatalf("Index.Len = %d, want 3 distinct hosts", ix.Len())
	}
}

// The micro-benchmarks quantify the satellite fix: probing every host of
// a large schedule via the O(n)-scan Timeline methods vs the indexed map.
func benchSchedule(n int) Timeline {
	s := make(Timeline, n)
	for i := range s {
		s[i] = Event{H: graph.HostID(i), T: sim.Time(i % 97)}
	}
	return s
}

func BenchmarkScheduleFailTimeScan(b *testing.B) {
	s := benchSchedule(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink sim.Time
		for h := graph.HostID(0); int(h) < 2000; h++ {
			sink += s.FailTime(h)
		}
		_ = sink
	}
}

func BenchmarkIndexFailTime(b *testing.B) {
	ix := benchSchedule(2000).Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink sim.Time
		for h := graph.HostID(0); int(h) < 2000; h++ {
			sink += ix.FailTime(h)
		}
		_ = sink
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	s := benchSchedule(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Index()
	}
}
