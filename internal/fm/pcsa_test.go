package fm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPCSAValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewPCSA(0, 32) },
		func() { NewPCSA(8, 0) },
		func() { NewPCSA(8, 65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestPCSAEmptyEstimate(t *testing.T) {
	if NewPCSA(8, 32).Estimate() != 0 {
		t.Fatal("empty PCSA estimate not 0")
	}
}

func TestPCSADuplicateInsensitive(t *testing.T) {
	a := NewPCSA(8, 32)
	b := NewPCSA(8, 32)
	hashes := []uint64{12345, 678901, 1 << 40, 42}
	for _, h := range hashes {
		a.Add(h)
	}
	// Insert every hash three times into b.
	for i := 0; i < 3; i++ {
		for _, h := range hashes {
			b.Add(h)
		}
	}
	if !a.Equal(b) {
		t.Fatal("PCSA not duplicate-insensitive for equal hashes")
	}
}

func TestPCSAAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const m = 1 << 14
	p := NewPCSA(64, 32)
	for i := 0; i < m; i++ {
		addRandom(p, rng)
	}
	est := p.Estimate()
	// PCSA at c=64 concentrates around the truth; the classic analysis
	// gives ~0.78/√c ≈ 10% standard error. Allow a wide band.
	if est < m/2 || est > m*2 {
		t.Fatalf("PCSA estimate %.0f far from %d", est, m)
	}
}

func TestPCSAEstimateMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	small := NewPCSA(16, 32)
	large := NewPCSA(16, 32)
	for i := 0; i < 100; i++ {
		addRandom(small, rng)
	}
	for i := 0; i < 20000; i++ {
		addRandom(large, rng)
	}
	if small.Estimate() >= large.Estimate() {
		t.Fatalf("PCSA not monotone: %.0f vs %.0f", small.Estimate(), large.Estimate())
	}
}

func TestQuickPCSAOrProperties(t *testing.T) {
	mk := func(seed int64, n int) *PCSA {
		rng := rand.New(rand.NewSource(seed))
		p := NewPCSA(8, 32)
		for i := 0; i < n; i++ {
			addRandom(p, rng)
		}
		return p
	}
	f := func(s1, s2 int64, n1, n2 uint8) bool {
		a := mk(s1, int(n1)+1)
		b := mk(s2, int(n2)+1)
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		if !ab.Equal(ba) {
			return false
		}
		// Idempotence.
		aa := a.Clone()
		aa.Or(a)
		return aa.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPCSAOrMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPCSA(8, 32).Or(NewPCSA(4, 32))
}

// PCSA's design trade: one geometric draw per insertion instead of c.
// Verify the semantics agree with the per-element-c Sketch within noise.
func TestPCSAAgreesWithSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m = 1 << 13
	const trials = 5
	var pcsaSum, sketchSum float64
	for i := 0; i < trials; i++ {
		p := NewPCSA(32, 32)
		s := NewSketch(32, 32)
		for k := 0; k < m; k++ {
			addRandom(p, rng)
			s.AddDistinct(rng)
		}
		pcsaSum += p.Estimate()
		sketchSum += s.Estimate()
	}
	ratio := pcsaSum / sketchSum
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("PCSA/Sketch mean estimate ratio %.2f; designs disagree", ratio)
	}
}

// addRandom inserts a fresh pseudo-element drawn from rng into p: a host
// inventing a distinct element (§5.2).
func addRandom(p *PCSA, rng *rand.Rand) {
	p.Add(uint64(rng.Int63())<<1 | uint64(rng.Int63n(2)))
}
