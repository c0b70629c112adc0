package churn

import (
	"math/rand"
	"testing"

	"validity/internal/graph"
	"validity/internal/sim"
)

func TestUniformRemovalBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := UniformRemoval(1000, 100, 0, 0, 500, rng)
	if len(s) != 100 {
		t.Fatalf("schedule length = %d, want 100", len(s))
	}
	seen := make(map[graph.HostID]bool)
	for _, f := range s {
		if f.H == 0 {
			t.Fatal("protected host was scheduled to fail")
		}
		if seen[f.H] {
			t.Fatalf("host %d scheduled twice", f.H)
		}
		seen[f.H] = true
		if f.T < 0 || f.T > 500 {
			t.Fatalf("failure time %d outside [0,500]", f.T)
		}
	}
	// Sorted by time.
	for i := 1; i < len(s); i++ {
		if s[i].T < s[i-1].T {
			t.Fatal("schedule not sorted by time")
		}
	}
}

func TestUniformRemovalRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := UniformRemoval(5000, 1000, 0, 0, 1000, rng)
	// Uniform rate: about half the failures in the first half.
	firstHalf := 0
	for _, f := range s {
		if f.T < 500 {
			firstHalf++
		}
	}
	if firstHalf < 400 || firstHalf > 600 {
		t.Fatalf("first-half failures = %d/1000, want ≈ 500", firstHalf)
	}
}

func TestUniformRemovalPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for R > removable")
			}
		}()
		UniformRemoval(10, 10, 0, 0, 100, rng) // only 9 removable
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for tn < t0")
			}
		}()
		UniformRemoval(10, 1, 0, 100, 50, rng)
	}()
}

func TestScheduleHelpers(t *testing.T) {
	s := Timeline{{H: 3, T: 10}, {H: 5, T: 20}}
	if s.FailTime(3) != 10 || s.FailTime(5) != 20 || s.FailTime(9) != -1 {
		t.Fatal("FailTime wrong")
	}
}

func TestApplyKillsHosts(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	nw := sim.NewNetwork(sim.Config{Graph: g, Seed: 1})
	Timeline{{H: 1, T: 5}}.Apply(nw)
	nw.Run(10)
	if nw.Alive(1) {
		t.Fatal("host 1 should be dead after applied schedule")
	}
	if !nw.Alive(0) || !nw.Alive(2) {
		t.Fatal("unscheduled hosts died")
	}
}

func TestExponentialSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 10000
	const mean = 100.0
	s := SessionTimeline(n, 0, mean, 0, 1000, rng)
	for _, f := range s {
		if f.H == 0 {
			t.Fatal("protected host scheduled")
		}
		if f.T > 1000 {
			t.Fatal("failure beyond horizon")
		}
	}
	// With mean 100 and horizon 1000, nearly all hosts fail (1-e^-10).
	if len(s) < n*9/10 {
		t.Fatalf("only %d/%d hosts failed", len(s), n)
	}
	// Memorylessness: about 1-e^-1 ≈ 63%% fail before t=100.
	early := 0
	for _, f := range s {
		if f.T < 100 {
			early++
		}
	}
	frac := float64(early) / float64(len(s))
	if frac < 0.55 || frac < 0 || frac > 0.72 {
		t.Fatalf("fraction failing before mean = %.3f, want ≈ 0.63", frac)
	}
}

func TestExponentialSessionsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive mean")
		}
	}()
	SessionTimeline(10, 0, 0, 0, 100, rand.New(rand.NewSource(1)))
}
