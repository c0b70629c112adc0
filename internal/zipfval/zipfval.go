// Package zipfval generates the attribute values of the paper's workload:
// integers drawn from a Zipfian distribution over the range [10, 500]
// (§6.1). The generator supports an arbitrary range and exponent so that
// examples and extensions can reuse it.
//
// The implementation samples ranks by inverse transform over the exact
// normalized Zipf probability mass function, which is fast enough at the
// paper's range width (491 distinct values) and exactly distributed —
// unlike rejection methods it wastes no draws.
package zipfval

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultLo and DefaultHi delimit the paper's attribute-value range.
const (
	DefaultLo = 10
	DefaultHi = 500
	// DefaultExponent is the Zipf skew; the paper does not state s, so we
	// use the classic s = 1.
	DefaultExponent = 1.0
)

// Gen draws Zipf-distributed integers in [Lo, Hi]: value Lo has the
// highest probability, decaying as rank^(-s).
type Gen struct {
	lo, hi int64
	cdf    []float64 // cumulative mass over ranks 0..hi-lo
	rng    *rand.Rand
}

// New returns a generator over [lo, hi] with exponent s > 0.
func New(lo, hi int64, s float64, seed int64) (*Gen, error) {
	if hi < lo {
		return nil, fmt.Errorf("zipfval: hi %d < lo %d", hi, lo)
	}
	if s <= 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("zipfval: exponent must be positive, got %v", s)
	}
	n := int(hi - lo + 1)
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &Gen{lo: lo, hi: hi, cdf: cdf, rng: rand.New(rand.NewSource(seed))}, nil
}

// Default returns the paper's [10,500], s=1 generator.
func Default(seed int64) *Gen {
	g, err := New(DefaultLo, DefaultHi, DefaultExponent, seed)
	if err != nil {
		panic(err) // constants are valid
	}
	return g
}

// Next draws one value.
func (g *Gen) Next() int64 {
	u := g.rng.Float64()
	// Binary search for the first rank with cdf ≥ u.
	lo, hi := 0, len(g.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return g.lo + int64(lo)
}

// Values draws n values.
func (g *Gen) Values(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
