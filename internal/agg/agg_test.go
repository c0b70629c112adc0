package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"validity/internal/fm"
)

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range []Kind{Min, Max, Count, Sum, Avg} {
		s := k.String()
		if s == "" {
			t.Fatalf("empty name for %d", int(k))
		}
		back, err := ParseKind(s)
		if err != nil || back != k {
			t.Fatalf("round trip %v failed", k)
		}
	}
	if _, err := ParseKind("median"); err == nil {
		t.Fatal("ParseKind accepted unknown aggregate")
	}
	if k, err := ParseKind("average"); err != nil || k != Avg {
		t.Fatal("ParseKind should accept 'average'")
	}
}

func TestDuplicateSensitive(t *testing.T) {
	if Min.DuplicateSensitive() || Max.DuplicateSensitive() {
		t.Fatal("min/max are duplicate-insensitive")
	}
	if !Count.DuplicateSensitive() || !Sum.DuplicateSensitive() || !Avg.DuplicateSensitive() {
		t.Fatal("count/sum/avg are duplicate-sensitive")
	}
}

func TestExact(t *testing.T) {
	vals := []int64{5, 3, 9, 3}
	cases := []struct {
		k    Kind
		want float64
	}{
		{Min, 3}, {Max, 9}, {Count, 4}, {Sum, 20}, {Avg, 5},
	}
	for _, c := range cases {
		if got := Exact(c.k, vals); got != c.want {
			t.Errorf("Exact(%v) = %v, want %v", c.k, got, c.want)
		}
	}
	for _, k := range []Kind{Min, Max, Count, Sum, Avg} {
		if Exact(k, nil) != 0 {
			t.Errorf("Exact(%v, empty) != 0", k)
		}
	}
}

func params() Params { return Params{Vectors: 8, Bits: 32} }

func TestScalarCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewPartial(Min, 10, params(), rng)
	b := NewPartial(Min, 5, params(), rng)
	if !a.Combine(b) {
		t.Fatal("min combine with smaller value should change")
	}
	if a.Result() != 5 {
		t.Fatalf("min result = %v", a.Result())
	}
	if a.Combine(b) {
		t.Fatal("second combine should be a no-op")
	}
	c := NewPartial(Max, 10, params(), rng)
	d := NewPartial(Max, 20, params(), rng)
	if !c.Combine(d) || c.Result() != 20 {
		t.Fatalf("max combine: %v", c.Result())
	}
	if c.Combine(NewPartial(Max, 3, params(), rng)) {
		t.Fatal("max combine with smaller value should not change")
	}
}

func TestMismatchedCombinePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := [][2]Partial{
		{NewPartial(Min, 1, params(), rng), NewPartial(Max, 1, params(), rng)},
		{NewPartial(Count, 1, params(), rng), NewPartial(Sum, 1, params(), rng)},
		{NewPartial(Sum, 1, params(), rng), NewPartial(Avg, 1, params(), rng)},
		{NewPartial(Avg, 1, params(), rng), NewPartial(Min, 1, params(), rng)},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			c[0].Combine(c[1])
		}()
	}
}

func TestCountPartialEstimatesNetworkSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 4096
	acc := NewPartial(Count, 0, Params{Vectors: 16, Bits: 32}, rng)
	for i := 1; i < n; i++ {
		acc.Combine(NewPartial(Count, 0, Params{Vectors: 16, Bits: 32}, rng))
	}
	est := acc.Result()
	if est < n/8 || est > n*8 {
		t.Fatalf("count estimate %.0f far from %d", est, n)
	}
}

func TestSumPartialEstimatesTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, v = 256, 50
	acc := NewPartial(Sum, v, Params{Vectors: 16, Bits: 32}, rng)
	for i := 1; i < n; i++ {
		acc.Combine(NewPartial(Sum, v, Params{Vectors: 16, Bits: 32}, rng))
	}
	want := float64(n * v)
	est := acc.Result()
	if est < want/8 || est > want*8 {
		t.Fatalf("sum estimate %.0f far from %.0f", est, want)
	}
}

func TestAvgPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, v = 512, 40
	p := Params{Vectors: 16, Bits: 32}
	acc := NewPartial(Avg, v, p, rng)
	for i := 1; i < n; i++ {
		acc.Combine(NewPartial(Avg, v, p, rng))
	}
	est := acc.Result()
	// All hosts hold v, so the true average is v; FM error enters as a
	// ratio of two estimates, typically well inside a factor of 4.
	if est < v/4 || est > v*4 {
		t.Fatalf("avg estimate %.1f far from %d", est, v)
	}
}

func TestAvgEmptyResultZero(t *testing.T) {
	// An avg partial always contains at least its own host in real runs;
	// check the division guard directly with empty sketches.
	a := &avgPartial{sum: fm.MakeSketch(8, 32), cnt: fm.MakeSketch(8, 32)}
	if a.Result() != 0 {
		t.Fatal("avg with empty count should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, k := range []Kind{Min, Max, Count, Sum, Avg} {
		a := NewPartial(k, 10, params(), rng)
		b := a.Clone()
		if !a.Equal(b) {
			t.Fatalf("%v: clone not equal", k)
		}
		b.Combine(NewPartial(k, 99, params(), rng))
		// After mutation the clone may differ; the original must be intact:
		c := a.Clone()
		if !a.Equal(c) {
			t.Fatalf("%v: original changed by clone mutation", k)
		}
	}
}

func TestEqualAcrossTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewPartial(Min, 1, params(), rng)
	b := NewPartial(Count, 1, params(), rng)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("partials of different kinds must not be equal")
	}
}

// Property: scalar combine implements the aggregate algebra — combining a
// sequence of min partials yields the true minimum.
func TestQuickScalarCombineAlgebra(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(1))
		minP := NewPartial(Min, int64(vals[0]), params(), rng)
		maxP := NewPartial(Max, int64(vals[0]), params(), rng)
		for _, v := range vals[1:] {
			minP.Combine(NewPartial(Min, int64(v), params(), rng))
			maxP.Combine(NewPartial(Max, int64(v), params(), rng))
		}
		ints := make([]int64, len(vals))
		for i, v := range vals {
			ints[i] = int64(v)
		}
		return minP.Result() == Exact(Min, ints) && maxP.Result() == Exact(Max, ints)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sketch combine is order-independent — combining partials in
// any order yields the same final sketch.
func TestQuickSketchCombineOrderIndependent(t *testing.T) {
	f := func(seed int64, perm []bool) bool {
		mk := func() []Partial {
			rng := rand.New(rand.NewSource(seed))
			ps := make([]Partial, 8)
			for i := range ps {
				ps[i] = NewPartial(Count, 1, params(), rng)
			}
			return ps
		}
		ps1, ps2 := mk(), mk()
		acc1 := ps1[0]
		for _, p := range ps1[1:] {
			acc1.Combine(p)
		}
		// Reverse order.
		acc2 := ps2[len(ps2)-1]
		for i := len(ps2) - 2; i >= 0; i-- {
			acc2.Combine(ps2[i])
		}
		return acc1.Equal(acc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchesAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for k, want := range map[Kind]int{Min: 0, Max: 0, Count: 1, Sum: 1, Avg: 2} {
		a, b := WireSketches(NewPartial(k, 1, params(), rng))
		if got := btoi(a != nil) + btoi(b != nil); got != want || a == nil && b != nil {
			t.Fatalf("%v partial exposes sketches (%v, %v), want %d", k, a, b, want)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Vectors != 8 || p.Bits != 32 {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestExactAvgFractional(t *testing.T) {
	got := Exact(Avg, []int64{1, 2})
	if math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("avg = %v, want 1.5", got)
	}
}

// Assign copies src into dst's storage whenever dst is of src's kind —
// whatever its sketch dimensions, every bit of it set — or is the other
// scalar kind, and into a fresh partial otherwise; either way the result
// equals src and shares nothing with it.
func TestAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kinds := []Kind{Min, Max, Count, Sum, Avg}
	dirty := func(k Kind) Partial {
		p := NewPartial(k, 1<<40, Params{Vectors: 67, Bits: 64}, rng)
		a, b := WireSketches(p)
		for _, sk := range [...]*fm.Sketch{a, b} {
			if sk != nil {
				sk.AddN(rng, 1<<62)
			}
		}
		return p
	}
	for _, k := range kinds {
		src := NewPartial(k, 42, params(), rng)
		want := src.Clone()
		for _, other := range kinds {
			dst := dirty(other)
			got := Assign(dst, src)
			reuse := other == k || !k.DuplicateSensitive() && !other.DuplicateSensitive()
			if (got == dst) != reuse {
				t.Errorf("Assign(%v partial, %v): reused dst = %t, want %t", other, k, got == dst, reuse)
			}
			if !got.Equal(src) || !Conforms(got, k, params()) {
				t.Errorf("Assign(%v partial, %v) does not equal its source", other, k)
			}
			got.Combine(NewPartial(k, -1, params(), rng))
			got.Combine(NewPartial(k, 1000, params(), rng))
			if !src.Equal(want) {
				t.Fatalf("Assign(%v partial, %v) shares state with its source", other, k)
			}
		}
		if got := Assign(nil, src); !got.Equal(src) {
			t.Errorf("Assign(nil, %v) does not equal its source", k)
		}
	}
}

// TestConforms pins the shape check a partial off the wire passes before
// it meets a query's state: every kind conforms to itself, and a partial
// of another kind, other sketch dimensions, or none at all does not — the
// cases Combine would panic on.
func TestConforms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := params()
	kinds := []Kind{Min, Max, Count, Sum, Avg}
	for _, k := range kinds {
		for _, other := range kinds {
			if got := Conforms(NewPartial(other, 3, p, rng), k, p); got != (other == k) {
				t.Errorf("Conforms(%v partial, %v) = %t", other, k, got)
			}
		}
		if Conforms(nil, k, p) {
			t.Errorf("Conforms(nil, %v) = true", k)
		}
	}
	for _, k := range []Kind{Count, Sum, Avg} {
		for _, q := range []Params{{Vectors: 4, Bits: 32}, {Vectors: 8, Bits: 16}} {
			if Conforms(NewPartial(k, 3, q, rng), k, p) {
				t.Errorf("%v sketch at %d×%d conforms to a %d×%d query", k, q.Vectors, q.Bits, p.Vectors, p.Bits)
			}
		}
	}
	// Scalars carry no sketch, so the query's sketch params do not apply.
	if !Conforms(NewPartial(Min, 3, Params{}, nil), Min, p) {
		t.Error("a MIN partial must conform whatever the sketch params")
	}
}

// initShapes are the sketch dimensions TestInitIntoRecycled moves between:
// both lane layouts (bits ≤ 32 pack two vectors a word), few and many
// vectors, so every pair is a shrink or a growth in words, width or both.
func initShapes() []Params {
	var ps []Params
	for _, c := range []int{8, 64} {
		for _, bits := range []int{16, 32, 64} {
			ps = append(ps, Params{Vectors: c, Bits: bits})
		}
	}
	return ps
}

// TestInitIntoRecycled pins the rebuild a recycled partial takes: Init into
// a partial of any other kind or shape — one that has been combined into,
// so its words are dirty — holds exactly what NewPartial builds from the
// same coins, and reuses dst whenever it is of the kind asked for.
func TestInitIntoRecycled(t *testing.T) {
	kinds := []Kind{Min, Max, Count, Sum, Avg}
	const v = 100 // above AddN's literal-insertion threshold: the sum draws per bit
	for _, fromK := range kinds {
		for _, fromP := range initShapes() {
			for _, k := range kinds {
				for _, p := range initShapes() {
					if fromK == k && fromP == p {
						continue
					}
					dst := NewPartial(fromK, 7, fromP, rand.New(rand.NewSource(1)))
					dst.Combine(NewPartial(fromK, 3, fromP, rand.New(rand.NewSource(2))))
					got := Init(dst, k, v, p, rand.New(rand.NewSource(3)))
					want := NewPartial(k, v, p, rand.New(rand.NewSource(3)))
					if !got.Equal(want) || !Conforms(got, k, p) {
						t.Errorf("Init(%v %d×%d partial, %v %d×%d) differs from NewPartial",
							fromK, fromP.Vectors, fromP.Bits, k, p.Vectors, p.Bits)
					}
					reuse := fromK == k || !fromK.DuplicateSensitive() && !k.DuplicateSensitive()
					if (got == dst) != reuse {
						t.Errorf("Init(%v partial, %v): reused dst = %t, want %t", fromK, k, got == dst, reuse)
					}
				}
			}
		}
	}
}

// TestInitAllocations pins the rebuild's garbage: Init into a partial of
// the kind asked for, whose sketches have the storage, allocates nothing —
// whatever dimensions the sketches held before.
func TestInitAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big := Params{Vectors: 64, Bits: 64}
	for _, k := range []Kind{Min, Max, Count, Sum, Avg} {
		dst := NewPartial(k, 5, big, rng)
		for _, p := range initShapes() {
			if got := testing.AllocsPerRun(20, func() { dst = Init(dst, k, 100, p, rng) }); got != 0 {
				t.Errorf("Init into a %v partial at %d×%d: %.0f allocations, want 0", k, p.Vectors, p.Bits, got)
			}
		}
	}
}
