package fm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSketchValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewSketch(0, 32) },
		func() { NewSketch(8, 0) },
		func() { NewSketch(8, 65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for invalid sketch parameters")
				}
			}()
			bad()
		}()
	}
	s := NewSketch(4, 16)
	if s.Vectors() != 4 || s.Bits() != 16 {
		t.Fatalf("dimensions: %d/%d", s.Vectors(), s.Bits())
	}
}

func TestEmptySketchEstimateZero(t *testing.T) {
	s := NewDefaultSketch()
	if e := s.Estimate(); e != 0 {
		t.Fatalf("empty sketch estimate = %v, want 0", e)
	}
}

func TestEstimateGrowsWithCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := CountSet(100, 16, 32, rng)
	large := CountSet(10000, 16, 32, rng)
	if small.Estimate() >= large.Estimate() {
		t.Fatalf("estimate not monotone: small=%.1f large=%.1f",
			small.Estimate(), large.Estimate())
	}
}

// Lemma 5.1: Pr[1/c ≤ m̂/m ≤ c] ≥ 1 − 2/c. With c = 16 the failure
// probability is ≤ 1/8; over a handful of trials all should pass easily.
func TestLemma51Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const c = 16
	for _, m := range []int{1 << 10, 1 << 12, 1 << 14} {
		fails := 0
		const trials = 20
		for trial := 0; trial < trials; trial++ {
			s := CountSet(m, c, 32, rng)
			ratio := s.Estimate() / float64(m)
			if ratio < 1.0/c || ratio > c {
				fails++
			}
		}
		if fails > trials/4 {
			t.Fatalf("m=%d: %d/%d estimates outside [1/%d, %d]", m, fails, trials, c, c)
		}
	}
}

// §6.4: with c ≈ 8 repetitions the accuracy ratio should be near 1. We
// average over trials and demand a loose band (FM with φ correction is
// unbiased up to small-sample effects).
func TestAccuracyConvergesNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m = 1 << 12
	mean := func(c int) float64 {
		sum := 0.0
		const trials = 30
		for i := 0; i < trials; i++ {
			sum += CountSet(m, c, 32, rng).Estimate() / float64(m)
		}
		return sum / trials
	}
	m8 := mean(8)
	if m8 < 0.6 || m8 > 1.6 {
		t.Fatalf("mean accuracy at c=8: %.3f, want ≈ 1", m8)
	}
	// More repetitions should not hurt.
	m32 := mean(32)
	if m32 < 0.6 || m32 > 1.6 {
		t.Fatalf("mean accuracy at c=32: %.3f, want ≈ 1", m32)
	}
}

func TestOrMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched OR")
		}
	}()
	NewSketch(4, 32).Or(NewSketch(8, 32))
}

func TestOrIsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := CountSet(500, 8, 32, rng)
	b := CountSet(500, 8, 32, rng)
	u := a.Clone()
	u.Or(b)
	if !u.Covers(a) || !u.Covers(b) {
		t.Fatal("union does not cover operands")
	}
	// Union estimate at least the max of the parts (monotone bits).
	if u.Estimate()+1e-9 < math.Max(a.Estimate(), b.Estimate()) {
		t.Fatalf("union estimate %.1f below parts %.1f/%.1f",
			u.Estimate(), a.Estimate(), b.Estimate())
	}
}

// Duplicate insensitivity: OR-ing a sketch into an accumulator twice gives
// the same result as once.
func TestQuickDuplicateInsensitive(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		part := CountSet(int(n)+1, 4, 32, rng)
		acc1 := NewSketch(4, 32)
		acc1.Or(part)
		acc2 := NewSketch(4, 32)
		acc2.Or(part)
		acc2.Or(part)
		acc2.Or(part)
		return acc1.Equal(acc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// OR is commutative and associative.
func TestQuickOrCommutativeAssociative(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		mk := func(seed int64) *Sketch {
			rng := rand.New(rand.NewSource(seed))
			return CountSet(int(uint16(seed))%100+1, 4, 32, rng)
		}
		a, b, c := mk(s1), mk(s2), mk(s3)
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		if !ab.Equal(ba) {
			return false
		}
		abc1 := ab.Clone()
		abc1.Or(c)
		bc := b.Clone()
		bc.Or(c)
		abc2 := a.Clone()
		abc2.Or(bc)
		return abc1.Equal(abc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// OR is idempotent: x OR x = x.
func TestQuickOrIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := CountSet(int(uint16(seed))%200+1, 4, 32, rng)
		aa := a.Clone()
		aa.Or(a)
		return aa.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoversReflexiveAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := CountSet(100, 8, 32, rng)
	if !a.Covers(a) {
		t.Fatal("sketch must cover itself")
	}
	empty := NewSketch(8, 32)
	if !a.Covers(empty) {
		t.Fatal("any sketch covers the empty sketch")
	}
	if empty.Covers(a) {
		t.Fatal("empty sketch cannot cover a non-empty one")
	}
	if a.Covers(NewSketch(4, 32)) {
		t.Fatal("mismatched dimensions must not be covered")
	}
}

func TestGeometricBitDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 200000
	counts := make([]int, 64)
	for i := 0; i < n; i++ {
		counts[geometricBit(rng, 32)]++
	}
	// Pr[b=0] ≈ 1/2, Pr[b=1] ≈ 1/4, Pr[b=2] ≈ 1/8.
	for b, want := range []float64{0.5, 0.25, 0.125} {
		got := float64(counts[b]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("Pr[b=%d] = %.4f, want ≈ %.3f", b, got, want)
		}
	}
}

func TestSumEncodingScales(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Sum of 64 hosts each holding 100 => 6400 pseudo-elements.
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = 100
	}
	s := SumSet(vals, 16, 32, rng)
	est := s.Estimate()
	if est < 6400.0/8 || est > 6400.0*8 {
		t.Fatalf("sum estimate %.0f wildly off 6400", est)
	}
}

// The AddN fast path must agree statistically with literal insertion.
func TestSumFastPathMatchesExact(t *testing.T) {
	const n = 1 << 12 // large enough to trigger the fast path
	const trials = 40
	meanEst := func(fast bool) float64 {
		rng := rand.New(rand.NewSource(8))
		sum := 0.0
		for i := 0; i < trials; i++ {
			s := NewSketch(8, 32)
			if fast {
				s.addNFast(rng, n)
			} else {
				for k := 0; k < n; k++ {
					s.AddDistinct(rng)
				}
			}
			sum += s.Estimate()
		}
		return sum / trials
	}
	exact, fast := meanEst(false), meanEst(true)
	if ratio := fast / exact; ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("fast path mean %.0f vs exact %.0f (ratio %.2f)", fast, exact, ratio)
	}
}

func TestAddNZeroAndNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSketch(4, 32)
	s.AddN(rng, 0)
	s.AddN(rng, -5)
	if s.Estimate() != 0 {
		t.Fatal("AddN(0) or AddN(negative) modified the sketch")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := CountSet(300, 8, 32, rng)
	wire := a.AppendWords(nil)
	if len(wire) != WireSize(8, 32) || len(wire) != 8*4 {
		t.Fatalf("wire form is %d bytes, WireSize %d, want 32", len(wire), WireSize(8, 32))
	}
	b, err := ReadWords(8, 32, wire)
	if err != nil || !a.Equal(&b) {
		t.Fatalf("AppendWords/ReadWords round trip failed: %v", err)
	}
	// ReadWords fills its own storage: the sketch must not alias the body.
	wire[0] ^= 0xFF
	if !a.Equal(&b) {
		t.Fatal("ReadWords aliased its input")
	}
	if _, err := ReadWords(8, 32, wire[:31]); err == nil {
		t.Fatal("short body accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := CountSet(100, 8, 32, rng)
	b := a.Clone()
	b.AddDistinct(rng)
	b.AddDistinct(rng)
	// a must be unchanged: b covers a but (likely) not vice versa; at
	// minimum a must still cover itself and equality must reflect clone
	// semantics right after cloning.
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("fresh clone differs from original")
	}
}

func TestStringFormat(t *testing.T) {
	s := NewDefaultSketch()
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}
