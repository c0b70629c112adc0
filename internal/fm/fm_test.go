package fm

import (
	"bytes"
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
	s := NewSketch(DefaultVectors, DefaultBits)
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

// packedCases are the sketch shapes the wire form has to carry: what a
// query ships at either fleet size, and the corners of the window.
func packedCases() map[string]*Sketch {
	rng := rand.New(rand.NewSource(10))
	lanes := func(c, bits int, vecs ...uint64) *Sketch {
		s := NewSketch(c, bits)
		for i, v := range vecs {
			s.or(i, v)
		}
		return s
	}
	return map[string]*Sketch{
		"empty":                    NewSketch(8, 32),
		"single insert":            CountSet(1, 8, 32, rng),
		"60 hosts, c=64":           CountSet(60, 64, 32, rng),
		"2K hosts, c=64":           CountSet(2048, 64, 32, rng),
		"all vectors 0x1F":         lanes(4, 32, 0x1F, 0x1F, 0x1F, 0x1F),
		"full width":               lanes(2, 32, 1<<31, 0),
		"saturated":                lanes(3, 32, math.MaxUint32, math.MaxUint32, math.MaxUint32),
		"odd c":                    CountSet(100, 7, 32, rng),
		"one vector":               CountSet(100, 1, 32, rng),
		"bits=40":                  CountSet(5000, 5, 40, rng),
		"bits=64, full width":      lanes(3, 64, 1<<63, 0, 1),
		"bits=64, saturated":       lanes(2, 64, math.MaxUint64, math.MaxUint64),
		"bits=64, window above 32": lanes(2, 64, 1<<50-1, 1<<34-1),
		"bits=8, sum of 5000":      SumSet([]int64{5000}, 9, 8, rng),
	}
}

func TestPackedRoundTrip(t *testing.T) {
	windows := map[string][2]int{ // lo, width
		"empty":                    {0, 0},
		"all vectors 0x1F":         {5, 0},
		"full width":               {0, 32},
		"saturated":                {32, 0},
		"bits=64, full width":      {0, 64},
		"bits=64, saturated":       {64, 0},
		"bits=64, window above 32": {34, 16},
	}
	for name, a := range packedCases() {
		wire := a.AppendPacked(nil)
		c, width := a.Vectors(), a.Bits()
		if len(wire) != a.PackedSize() || len(wire) > 2+(c*width+7)/8 {
			t.Fatalf("%s: wire form is %d bytes, PackedSize %d, declared width %d+2", name, len(wire), a.PackedSize(), (c*width+7)/8)
		}
		if w, ok := windows[name]; ok && (int(wire[0]) != w[0] || int(wire[1]) != w[1]) {
			t.Fatalf("%s: window lo=%d width=%d, want %v", name, wire[0], wire[1], w)
		}
		// A reader takes its sketch off the front of a longer buffer.
		var b Sketch
		n, err := ReadPacked(&b, c, width, append(wire, 0xEE))
		if err != nil || n != len(wire) || !a.Equal(&b) {
			t.Fatalf("%s: round trip: n=%d of %d, err=%v", name, n, len(wire), err)
		}
		if again := b.AppendPacked(nil); !bytes.Equal(again, wire) {
			t.Fatalf("%s: re-encodes differently\n in %x\nout %x", name, wire, again)
		}
		// ReadPacked fills its own storage: the sketch must not alias the body.
		for i := range wire {
			wire[i] ^= 0xFF
		}
		if !a.Equal(&b) {
			t.Fatalf("%s: ReadPacked aliased its input", name)
		}
	}
	if n := CountSet(2048, 64, 32, rand.New(rand.NewSource(3))).PackedSize(); n > 4*64/2 {
		t.Fatalf("a 2,048-host c=64 sketch packs to %d bytes, more than half its declared 256", n)
	}
}

// Property: whatever was inserted, a sketch survives the wire bit for bit
// and its wire form is the only one that decodes to it.
func TestQuickPackedRoundTrip(t *testing.T) {
	f := func(seed int64, c, width uint8, m uint16, add uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		a := CountSet(int(m)%500, int(c)%255+1, int(width)%64+1, rng)
		if seed&1 == 1 {
			a.AddN(rng, int64(add))
		}
		wire := a.AppendPacked(nil)
		var b Sketch
		n, err := ReadPacked(&b, a.Vectors(), a.Bits(), wire)
		return err == nil && n == len(wire) && n == a.PackedSize() && a.Equal(&b) &&
			bytes.Equal(b.AppendPacked(nil), wire)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
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
	s := NewSketch(DefaultVectors, DefaultBits)
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// addNFastPerBit is addNFast as it was before its marginals were tabled:
// the same float64 expressions and the same draws, recomputed per vector
// and bit.
func (s *Sketch) addNFastPerBit(rng *rand.Rand, n int64) {
	width := int(s.bits)
	for i := 0; i < int(s.c); i++ {
		had, add := s.lane(i), uint64(0)
		for b := 0; b < width; b++ {
			if had&(1<<b) != 0 {
				continue
			}
			var p float64
			if b == width-1 {
				p = math.Pow(2, -float64(b))
			} else {
				p = math.Pow(2, -float64(b+1))
			}
			q := -math.Expm1(float64(n) * math.Log1p(-p))
			if rng.Float64() < q {
				add |= 1 << b
			}
		}
		s.or(i, add)
	}
}

// TestAddNTableMatchesPerBit holds the tabled SUM insertion to the per-bit
// one it replaced: equal sketches, and the coin stream left at the same
// place, into empty sketches and into ones that already hold bits.
func TestAddNTableMatchesPerBit(t *testing.T) {
	for _, dims := range [][2]int{{64, 32}, {8, 64}, {16, 20}} {
		for _, n := range []int64{65, 1000, 123456} {
			for _, seed := range []int64{1, 2, 3} {
				got, want := NewSketch(dims[0], dims[1]), NewSketch(dims[0], dims[1])
				gr, wr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for round := 0; round < 3; round++ {
					got.AddN(gr, n)
					want.addNFastPerBit(wr, n)
					if !got.Equal(want) {
						t.Fatalf("c=%d bits=%d n=%d seed=%d round %d: tabled sketch differs", dims[0], dims[1], n, seed, round)
					}
					if gr.Int63() != wr.Int63() {
						t.Fatalf("c=%d bits=%d n=%d seed=%d round %d: coin streams diverged", dims[0], dims[1], n, seed, round)
					}
				}
			}
		}
	}
}

// BenchmarkAddN is one SUM insertion of a value of 1,000 into an empty
// c = 64, 32-bit sketch: the per-host cost of a SUM activation.
func BenchmarkAddN(b *testing.B) {
	s := NewSketch(64, 32)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for b.Loop() {
		s.Reset(64, 32)
		s.AddN(rng, 1000)
	}
}
