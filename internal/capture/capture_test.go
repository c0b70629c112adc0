package capture

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestEstimatorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := NewPopulation(100, rng)
	if _, err := NewEstimator(nil, pop, 10, 0); err == nil {
		t.Fatal("nil sampler accepted")
	}
	if _, err := NewEstimator(pop, nil, 10, 0); err == nil {
		t.Fatal("nil prober accepted")
	}
	if _, err := NewEstimator(pop, pop, 0, 0); err == nil {
		t.Fatal("zero sample size accepted")
	}
}

func TestFirstIntervalNoEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pop := NewPopulation(1000, rng)
	est, err := NewEstimator(pop, pop, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := est.Step()
	if !math.IsNaN(r.Estimate) {
		t.Fatalf("first interval produced estimate %v; M_1 = ∅", r.Estimate)
	}
	if r.Marked != 0 {
		t.Fatalf("first interval marked = %d, want 0", r.Marked)
	}
}

func TestStaticPopulationEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	pop := NewPopulation(n, rng)
	est, err := NewEstimator(pop, pop, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	est.Step() // mark only
	var sum float64
	var got int
	for i := 0; i < 10; i++ {
		r := est.Step()
		if !math.IsNaN(r.Estimate) {
			sum += r.Estimate
			got++
		}
	}
	if got == 0 {
		t.Fatal("no estimates produced")
	}
	mean := sum / float64(got)
	if mean < n*0.8 || mean > n*1.2 {
		t.Fatalf("mean estimate %.0f, want ≈ %d", mean, n)
	}
}

func TestChurningPopulationTracksSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 3000
	pop := NewPopulation(n, rng)
	est, err := NewEstimator(pop, pop, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	est.Step()
	var relErrSum float64
	var got int
	for i := 0; i < 15; i++ {
		// 5% leave, matching joins: stationary churning population.
		pop.Advance(0.05, int(0.05*float64(pop.Size())))
		r := est.Step()
		if math.IsNaN(r.Estimate) {
			continue
		}
		relErrSum += math.Abs(r.Estimate/float64(pop.Size()) - 1)
		got++
	}
	if got < 10 {
		t.Fatalf("only %d estimates under churn", got)
	}
	if avg := relErrSum / float64(got); avg > 0.35 {
		t.Fatalf("mean relative error %.2f too high under churn", avg)
	}
}

func TestShrinkingPopulationFollowed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pop := NewPopulation(4000, rng)
	est, _ := NewEstimator(pop, pop, 500, 0)
	est.Step()
	pop.Advance(0.5, 0) // halve the population
	pop.Advance(0.0, 0)
	var last float64
	for i := 0; i < 5; i++ {
		r := est.Step()
		if !math.IsNaN(r.Estimate) {
			last = r.Estimate
		}
	}
	size := float64(pop.Size())
	if last < size*0.6 || last > size*1.6 {
		t.Fatalf("estimate %.0f did not follow population down to %.0f", last, size)
	}
}

func TestMaxMarkedCap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pop := NewPopulation(1000, rng)
	est, _ := NewEstimator(pop, pop, 200, 50)
	for i := 0; i < 5; i++ {
		est.Step()
	}
	if len(est.marked) > 50 {
		t.Fatalf("marked set %d exceeds cap 50", len(est.marked))
	}
}

func TestPopulationAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pop := NewPopulation(1000, rng)
	pop.Advance(0, 100)
	if pop.Size() != 1100 {
		t.Fatalf("size after joins = %d, want 1100", pop.Size())
	}
	pop.Advance(1.0, 0)
	if pop.Size() != 0 {
		t.Fatalf("size after full churn = %d, want 0", pop.Size())
	}
	// Sample on an empty population returns nothing.
	if got := pop.Sample(10); len(got) != 0 {
		t.Fatalf("empty population sampled %d hosts", len(got))
	}
}

// Which hosts leave must depend on the seed alone, not on map iteration
// order: two populations from one seed walk the same trail.
func TestPopulationReproducibleFromSeed(t *testing.T) {
	a := NewPopulation(300, rand.New(rand.NewSource(11)))
	b := NewPopulation(300, rand.New(rand.NewSource(11)))
	for step := 1; step <= 5; step++ {
		a.Advance(0.1, 30)
		b.Advance(0.1, 30)
		if a.Size() != b.Size() {
			t.Fatalf("step %d: sizes %d and %d from one seed", step, a.Size(), b.Size())
		}
		if sa, sb := a.Sample(20), b.Sample(20); !slices.Equal(sa, sb) {
			t.Fatalf("step %d: samples differ from one seed:\n%v\n%v", step, sa, sb)
		}
	}
}

func TestSampleUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pop := NewPopulation(100, rng)
	counts := make(map[int]int)
	const trials = 2000
	for i := 0; i < trials; i++ {
		for _, h := range pop.Sample(10) {
			counts[int(h)]++
		}
	}
	// Each host expected 200 draws; demand all within a wide band.
	for h := 0; h < 100; h++ {
		if counts[h] < 100 || counts[h] > 320 {
			t.Fatalf("host %d drawn %d times, want ≈ 200", h, counts[h])
		}
	}
}

func TestRecaptureZeroYieldsNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pop := NewPopulation(100000, rng) // sample of 5 almost never recaptures
	est, _ := NewEstimator(pop, pop, 5, 0)
	est.Step()
	r := est.Step()
	if r.Recaptured == 0 && !math.IsNaN(r.Estimate) {
		t.Fatal("zero recaptures must produce NaN estimate")
	}
}
