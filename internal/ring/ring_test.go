package ring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJoinLeave(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := New(rng)
	if r.Size() != 0 {
		t.Fatal("fresh ring not empty")
	}
	id := r.Join()
	if r.Size() != 1 {
		t.Fatal("join did not grow ring")
	}
	if !r.Leave(id) {
		t.Fatal("leave of present host failed")
	}
	if r.Leave(id) {
		t.Fatal("leave of absent host succeeded")
	}
	if r.Size() != 0 {
		t.Fatal("ring not empty after leave")
	}
}

func TestSegmentsPartitionUnitCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewWithHosts(500, rng)
	var total float64
	for _, id := range r.SampleHosts(500) {
		seg, err := r.SegmentLength(id)
		if err != nil {
			t.Fatal(err)
		}
		if seg <= 0 || seg > 1 {
			t.Fatalf("segment length %v out of (0,1]", seg)
		}
		total += seg
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("segments sum to %v, want 1", total)
	}
}

func TestSingleHostOwnsWholeRing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := New(rng)
	id := r.Join()
	seg, err := r.SegmentLength(id)
	if err != nil || seg != 1 {
		t.Fatalf("single host segment = %v (err %v), want 1", seg, err)
	}
}

func TestEstimateAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 5000
	r := NewWithHosts(n, rng)
	// s/X_s concentrates as s grows. Average a few estimates at s=500.
	var sum float64
	const trials = 10
	for i := 0; i < trials; i++ {
		est, err := r.EstimateSize(500)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	if mean < n*0.8 || mean > n*1.2 {
		t.Fatalf("mean estimate %.0f, want ≈ %d", mean, n)
	}
}

func TestEstimateTracksChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := NewWithHosts(4000, rng)
	// Half the hosts leave (uniformly at random, assumption 3).
	for i := 0; i < 2000; i++ {
		if !r.Leave(r.SampleHosts(1)[0]) {
			t.Fatal("leave failed")
		}
	}
	var sum float64
	const trials = 10
	for i := 0; i < trials; i++ {
		est, err := r.EstimateSize(400)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	if mean < 2000*0.75 || mean > 2000*1.25 {
		t.Fatalf("post-churn mean estimate %.0f, want ≈ 2000", mean)
	}
}

func TestEstimateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New(rng)
	if _, err := r.EstimateSize(5); err == nil {
		t.Fatal("estimate on empty ring should error")
	}
}

func TestSegmentLengthUnknownHost(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := NewWithHosts(10, rng)
	if _, err := r.SegmentLength(2.0); err == nil {
		t.Fatal("segment of absent id should error")
	}
}

// Property: after arbitrary join/leave sequences, segments always
// partition the circle.
func TestQuickPartitionInvariant(t *testing.T) {
	f := func(seed int64, ops []bool) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(rng)
		for _, join := range ops {
			if join || r.Size() == 0 {
				r.Join()
			} else {
				r.Leave(r.SampleHosts(1)[0])
			}
		}
		if r.Size() == 0 {
			return true
		}
		var total float64
		for _, id := range r.SampleHosts(r.Size()) {
			seg, err := r.SegmentLength(id)
			if err != nil {
				return false
			}
			total += seg
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleHostsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := NewWithHosts(5, rng)
	if got := r.SampleHosts(10); len(got) != 5 {
		t.Fatalf("oversized sample returned %d hosts", len(got))
	}
	if got := r.SampleHosts(3); len(got) != 3 {
		t.Fatalf("sample returned %d hosts, want 3", len(got))
	}
}
