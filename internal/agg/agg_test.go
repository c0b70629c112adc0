package agg_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"validity/internal/agg"
	"validity/internal/fm"
	"validity/internal/wire"
)

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg} {
		s := k.String()
		if s == "" {
			t.Fatalf("empty name for %d", int(k))
		}
		back, err := agg.ParseKind(s)
		if err != nil || back != k {
			t.Fatalf("round trip %v failed", k)
		}
	}
	if _, err := agg.ParseKind("median"); err == nil {
		t.Fatal("ParseKind accepted unknown aggregate")
	}
	if k, err := agg.ParseKind("average"); err != nil || k != agg.Avg {
		t.Fatal("ParseKind should accept 'average'")
	}
}

func TestDuplicateSensitive(t *testing.T) {
	if agg.Min.DuplicateSensitive() || agg.Max.DuplicateSensitive() {
		t.Fatal("min/max are duplicate-insensitive")
	}
	if !agg.Count.DuplicateSensitive() || !agg.Sum.DuplicateSensitive() || !agg.Avg.DuplicateSensitive() {
		t.Fatal("count/sum/avg are duplicate-sensitive")
	}
}

func TestExact(t *testing.T) {
	vals := []int64{5, 3, 9, 3}
	cases := []struct {
		k    agg.Kind
		want float64
	}{
		{agg.Min, 3}, {agg.Max, 9}, {agg.Count, 4}, {agg.Sum, 20}, {agg.Avg, 5},
	}
	for _, c := range cases {
		if got := agg.Exact(c.k, vals); got != c.want {
			t.Errorf("Exact(%v) = %v, want %v", c.k, got, c.want)
		}
	}
	for _, k := range []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg} {
		if agg.Exact(k, nil) != 0 {
			t.Errorf("Exact(%v, empty) != 0", k)
		}
	}
}

func params() agg.Params { return agg.Params{Vectors: 8, Bits: 32} }

func TestScalarCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := agg.NewPartial(agg.Min, 10, params(), rng)
	b := agg.NewPartial(agg.Min, 5, params(), rng)
	if !a.Combine(b) {
		t.Fatal("min combine with smaller value should change")
	}
	if a.Result() != 5 {
		t.Fatalf("min result = %v", a.Result())
	}
	if a.Combine(b) {
		t.Fatal("second combine should be a no-op")
	}
	c := agg.NewPartial(agg.Max, 10, params(), rng)
	d := agg.NewPartial(agg.Max, 20, params(), rng)
	if !c.Combine(d) || c.Result() != 20 {
		t.Fatalf("max combine: %v", c.Result())
	}
	if c.Combine(agg.NewPartial(agg.Max, 3, params(), rng)) {
		t.Fatal("max combine with smaller value should not change")
	}
}

func TestMismatchedCombinePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := [][2]*agg.Partial{
		{agg.NewPartial(agg.Min, 1, params(), rng), agg.NewPartial(agg.Max, 1, params(), rng)},
		{agg.NewPartial(agg.Count, 1, params(), rng), agg.NewPartial(agg.Sum, 1, params(), rng)},
		{agg.NewPartial(agg.Sum, 1, params(), rng), agg.NewPartial(agg.Avg, 1, params(), rng)},
		{agg.NewPartial(agg.Avg, 1, params(), rng), agg.NewPartial(agg.Min, 1, params(), rng)},
		// The zero Partial is of kind Min, but holds no aggregate.
		{agg.NewPartial(agg.Min, 1, params(), rng), new(agg.Partial)},
		{new(agg.Partial), agg.NewPartial(agg.Min, 1, params(), rng)},
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
	acc := agg.NewPartial(agg.Count, 0, agg.Params{Vectors: 16, Bits: 32}, rng)
	for i := 1; i < n; i++ {
		acc.Combine(agg.NewPartial(agg.Count, 0, agg.Params{Vectors: 16, Bits: 32}, rng))
	}
	est := acc.Result()
	if est < n/8 || est > n*8 {
		t.Fatalf("count estimate %.0f far from %d", est, n)
	}
}

func TestSumPartialEstimatesTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, v = 256, 50
	acc := agg.NewPartial(agg.Sum, v, agg.Params{Vectors: 16, Bits: 32}, rng)
	for i := 1; i < n; i++ {
		acc.Combine(agg.NewPartial(agg.Sum, v, agg.Params{Vectors: 16, Bits: 32}, rng))
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
	p := agg.Params{Vectors: 16, Bits: 32}
	acc := agg.NewPartial(agg.Avg, v, p, rng)
	for i := 1; i < n; i++ {
		acc.Combine(agg.NewPartial(agg.Avg, v, p, rng))
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
	var a agg.Partial
	sum, cnt := a.Refill(agg.Avg, 0)
	sum.Reset(8, 32)
	cnt.Reset(8, 32)
	if a.Result() != 0 {
		t.Fatal("avg with empty count should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, k := range []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg} {
		a := agg.NewPartial(k, 10, params(), rng)
		b := a.Clone()
		if !a.Equal(b) {
			t.Fatalf("%v: clone not equal", k)
		}
		b.Combine(agg.NewPartial(k, 99, params(), rng))
		// After mutation the clone may differ; the original must be intact:
		c := a.Clone()
		if !a.Equal(c) {
			t.Fatalf("%v: original changed by clone mutation", k)
		}
	}
}

func TestEqualAcrossTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := agg.NewPartial(agg.Min, 1, params(), rng)
	b := agg.NewPartial(agg.Count, 1, params(), rng)
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
		minP := agg.NewPartial(agg.Min, int64(vals[0]), params(), rng)
		maxP := agg.NewPartial(agg.Max, int64(vals[0]), params(), rng)
		for _, v := range vals[1:] {
			minP.Combine(agg.NewPartial(agg.Min, int64(v), params(), rng))
			maxP.Combine(agg.NewPartial(agg.Max, int64(v), params(), rng))
		}
		ints := make([]int64, len(vals))
		for i, v := range vals {
			ints[i] = int64(v)
		}
		return minP.Result() == agg.Exact(agg.Min, ints) && maxP.Result() == agg.Exact(agg.Max, ints)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sketch combine is order-independent — combining partials in
// any order yields the same final sketch.
func TestQuickSketchCombineOrderIndependent(t *testing.T) {
	f := func(seed int64, perm []bool) bool {
		mk := func() []*agg.Partial {
			rng := rand.New(rand.NewSource(seed))
			ps := make([]*agg.Partial, 8)
			for i := range ps {
				ps[i] = agg.NewPartial(agg.Count, 1, params(), rng)
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
	for k, want := range map[agg.Kind]int{agg.Min: 0, agg.Max: 0, agg.Count: 1, agg.Sum: 1, agg.Avg: 2} {
		a, b := agg.NewPartial(k, 1, params(), rng).Sketches()
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
	p := agg.DefaultParams()
	if p.Vectors != 8 || p.Bits != 32 {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestExactAvgFractional(t *testing.T) {
	got := agg.Exact(agg.Avg, []int64{1, 2})
	if math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("avg = %v, want 1.5", got)
	}
}

// recycled returns a partial of kind k at p as a retired query leaves it
// for the next: it held an avg at p before, and every sketch it has — the
// ones k ignores too — is then filled with bits (a sum of 2^62 sets nearly
// all of them), so any field a rebuild forgets shows.
func recycled(k agg.Kind, p agg.Params, rng *rand.Rand) *agg.Partial {
	dst := new(agg.Partial)
	for _, kind := range []agg.Kind{agg.Avg, k} {
		dst.Init(kind, 1<<40, p, rng)
		a, b := dst.Sketches()
		for _, sk := range [...]*fm.Sketch{a, b} {
			if sk != nil {
				sk.AddN(rng, 1<<62)
			}
		}
	}
	return dst
}

// sameBytes fails t unless got encodes to want's wire bytes.
func sameBytes(t *testing.T, what string, got, want *agg.Partial) {
	t.Helper()
	g, gerr := wire.AppendPartial(nil, got)
	w, werr := wire.AppendPartial(nil, want)
	if gerr != nil || werr != nil || !bytes.Equal(g, w) {
		t.Errorf("%s encodes to %x (%v), want %x (%v)", what, g, gerr, w, werr)
	}
}

// Assign copies src into dst's own storage, whatever kind and sketch
// dimensions dst held and whatever its sketches hold: the result equals
// src, encodes to its bytes, and shares nothing with it. A Clone of a
// scalar partial carries no sketch storage.
func TestAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kinds := []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg}
	for _, k := range kinds {
		src := agg.NewPartial(k, 42, params(), rng)
		want := src.Clone()
		for _, other := range kinds {
			dst := recycled(other, agg.Params{Vectors: 67, Bits: 64}, rng)
			dst.Assign(src)
			if !dst.Equal(src) || !agg.Conforms(dst, k, params()) {
				t.Errorf("Assign(%v partial, %v) does not equal its source", other, k)
			}
			sameBytes(t, fmt.Sprintf("Assign(%v partial, %v)", other, k), dst, src)
			dst.Combine(agg.NewPartial(k, -1, params(), rng))
			dst.Combine(agg.NewPartial(k, 1000, params(), rng))
			if !src.Equal(want) {
				t.Fatalf("Assign(%v partial, %v) shares state with its source", other, k)
			}
		}
	}
	for _, k := range []agg.Kind{agg.Min, agg.Max} {
		// Refilled as a count, the clone shows the sketch storage it has.
		c := recycled(k, params(), rng).Clone()
		if a, _ := c.Refill(agg.Count, 0); a.Vectors() != 0 {
			t.Errorf("a clone of a %v partial carries a %d×%d sketch", k, a.Vectors(), a.Bits())
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
	kinds := []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg}
	for _, k := range kinds {
		for _, other := range kinds {
			if got := agg.Conforms(agg.NewPartial(other, 3, p, rng), k, p); got != (other == k) {
				t.Errorf("Conforms(%v partial, %v) = %t", other, k, got)
			}
		}
		if agg.Conforms(nil, k, p) {
			t.Errorf("Conforms(nil, %v) = true", k)
		}
		// The zero Partial, and one cleared as a has = 0 frame clears a
		// snapshot, hold no aggregate: on a MIN query they must not pass
		// for a minimum of 0.
		cleared := agg.NewPartial(k, 3, p, rng)
		cleared.Clear()
		if agg.Conforms(new(agg.Partial), k, p) || agg.Conforms(cleared, k, p) {
			t.Errorf("a partial that holds no aggregate conforms to %v", k)
		}
	}
	for _, k := range []agg.Kind{agg.Count, agg.Sum, agg.Avg} {
		for _, q := range []agg.Params{{Vectors: 4, Bits: 32}, {Vectors: 8, Bits: 16}} {
			if agg.Conforms(agg.NewPartial(k, 3, q, rng), k, p) {
				t.Errorf("%v sketch at %d×%d conforms to a %d×%d query", k, q.Vectors, q.Bits, p.Vectors, p.Bits)
			}
		}
	}
	// Scalars carry no sketch, so the query's sketch params do not apply.
	if !agg.Conforms(agg.NewPartial(agg.Min, 3, agg.Params{}, nil), agg.Min, p) {
		t.Error("a MIN partial must conform whatever the sketch params")
	}
}

// initShapes are the sketch dimensions TestInitIntoRecycled moves between:
// both lane layouts (bits ≤ 32 pack two vectors a word), few and many
// vectors, so every pair is a shrink or a growth in words, width or both.
func initShapes() []agg.Params {
	var ps []agg.Params
	for _, c := range []int{8, 64} {
		for _, bits := range []int{16, 32, 64} {
			ps = append(ps, agg.Params{Vectors: c, Bits: bits})
		}
	}
	return ps
}

// TestInitIntoRecycled pins the rebuild a recycled partial takes: Init into
// a partial of any kind and shape, its every sketch full of stale bits,
// rebuilds it in place to exactly what NewPartial builds from the same
// coins, wire bytes included.
func TestInitIntoRecycled(t *testing.T) {
	kinds := []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg}
	const v = 100 // above AddN's literal-insertion threshold: the sum draws per bit
	for _, fromK := range kinds {
		for _, fromP := range initShapes() {
			for _, k := range kinds {
				for _, p := range initShapes() {
					dst := recycled(fromK, fromP, rand.New(rand.NewSource(1)))
					dst.Init(k, v, p, rand.New(rand.NewSource(3)))
					want := agg.NewPartial(k, v, p, rand.New(rand.NewSource(3)))
					what := fmt.Sprintf("Init(%v %d×%d partial, %v %d×%d)", fromK, fromP.Vectors, fromP.Bits, k, p.Vectors, p.Bits)
					if !dst.Equal(want) || !agg.Conforms(dst, k, p) {
						t.Errorf("%s differs from NewPartial", what)
					}
					sameBytes(t, what, dst, want)
				}
			}
		}
	}
}

// TestInitAllocations pins the rebuild's garbage: once a partial has held
// every kind at the widest shape, Init into it allocates nothing — from
// whatever kind and dimensions it held to whatever it is asked for.
func TestInitAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	kinds := []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg}
	dst := new(agg.Partial)
	for _, k := range kinds {
		dst.Init(k, 5, agg.Params{Vectors: 64, Bits: 64}, rng)
	}
	for _, p := range initShapes() {
		got := testing.AllocsPerRun(20, func() {
			for _, k := range kinds {
				dst.Init(k, 100, p, rng)
			}
		})
		if got != 0 {
			t.Errorf("Init through every kind at %d×%d: %.0f allocations, want 0", p.Vectors, p.Bits, got)
		}
	}
}
