package zipfval

import (
	"testing"
)

func TestValuesWithinRange(t *testing.T) {
	g := Default(1)
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v < DefaultLo || v > DefaultHi {
			t.Fatalf("value %d out of [%d,%d]", v, DefaultLo, DefaultHi)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := Default(2)
	const n = 200000
	counts := make(map[int64]int)
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	// Rank-1 value (10) should appear roughly twice as often as rank-2
	// value (11) under s=1; allow wide tolerance.
	c10, c11 := counts[10], counts[11]
	if c10 == 0 || c11 == 0 {
		t.Fatalf("head values missing: c10=%d c11=%d", c10, c11)
	}
	ratio := float64(c10) / float64(c11)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("p(10)/p(11) = %.2f, want ≈ 2", ratio)
	}
	// Head must dominate tail: 10 far more frequent than 400.
	if counts[10] < 20*counts[400]+1 {
		t.Fatalf("head not dominant: c10=%d c400=%d", counts[10], counts[400])
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a := Default(7).Values(100)
	b := Default(7).Values(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(10, 5, 1, 1); err == nil {
		t.Fatal("hi < lo should error")
	}
	if _, err := New(1, 10, 0, 1); err == nil {
		t.Fatal("zero exponent should error")
	}
	if _, err := New(1, 10, -1, 1); err == nil {
		t.Fatal("negative exponent should error")
	}
}

func TestSingletonRange(t *testing.T) {
	g, err := New(42, 42, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v := g.Next(); v != 42 {
			t.Fatalf("singleton range produced %d", v)
		}
	}
	if g.lo != 42 || g.hi != 42 {
		t.Fatalf("range = %d,%d", g.lo, g.hi)
	}
}

func TestValuesLen(t *testing.T) {
	vs := Default(3).Values(17)
	if len(vs) != 17 {
		t.Fatalf("Values(17) returned %d values", len(vs))
	}
}

func TestHigherExponentMoreSkewed(t *testing.T) {
	const n = 50000
	headShare := func(s float64) float64 {
		g, err := New(10, 500, s, 9)
		if err != nil {
			t.Fatal(err)
		}
		head := 0
		for i := 0; i < n; i++ {
			if g.Next() == 10 {
				head++
			}
		}
		return float64(head) / n
	}
	if headShare(2.0) <= headShare(1.0) {
		t.Fatal("higher exponent should concentrate more mass on the head")
	}
}
