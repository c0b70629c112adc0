// Package agg defines the aggregate queries of the paper — minimum,
// maximum, count, sum and average (§1, §5) — and the partial-aggregate
// state A_h the protocols exchange.
//
// One type, Partial, carries that state for every kind, and each kind
// uses its own fields only: min/max a scalar, whose combine function is
// the query itself and naturally duplicate-insensitive (§5.1); count and
// sum one Flajolet–Martin sketch, combined by bitwise OR (§5.2); average a
// (sum, count) sketch pair. A partial rebuilt for another kind keeps the
// storage of the fields that kind ignores.
//
// Exact reference evaluation over a value multiset is also provided; the
// oracle uses it to compute the q(H_C) and q(H_U) validity bounds.
package agg

import (
	"fmt"
	"math/rand"

	"validity/internal/fm"
)

// Kind enumerates the aggregate queries.
type Kind int

const (
	Min Kind = iota
	Max
	Count
	Sum
	Avg
)

func (k Kind) String() string {
	switch k {
	case Min:
		return "min"
	case Max:
		return "max"
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a query name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	case "count":
		return Count, nil
	case "sum":
		return Sum, nil
	case "avg", "average":
		return Avg, nil
	}
	return 0, fmt.Errorf("agg: unknown aggregate %q", s)
}

// DuplicateSensitive reports whether the conventional combine function for
// k is duplicate-sensitive (+). Such kinds need the FM sketch encoding to
// run on WILDFIRE (§5.2).
func (k Kind) DuplicateSensitive() bool {
	return k == Count || k == Sum || k == Avg
}

// Exact evaluates the aggregate exactly over values (the Oracle's view).
// Count ignores the magnitudes. Avg of an empty set is 0.
func Exact(k Kind, values []int64) float64 {
	if len(values) == 0 {
		return 0
	}
	switch k {
	case Min:
		m := values[0]
		for _, v := range values[1:] {
			if v < m {
				m = v
			}
		}
		return float64(m)
	case Max:
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return float64(m)
	case Count:
		return float64(len(values))
	case Sum:
		var s int64
		for _, v := range values {
			s += v
		}
		return float64(s)
	case Avg:
		var s int64
		for _, v := range values {
			s += v
		}
		return float64(s) / float64(len(values))
	default:
		panic(fmt.Sprintf("agg: unknown kind %d", int(k)))
	}
}

// Partial is a host's partial aggregate A_h (§5.1): the state initialized
// when the host becomes active, combined with neighbors' partials during
// convergecast, and evaluated at the querying host at the deadline.
//
// Its kind decides which fields it uses: val for min/max, a for count and
// sum, a (the sum) and b (the count) for avg. Every method ignores the
// rest, which keep their storage, so a partial rebuilt in place (Init,
// Assign, Refill) allocates nothing once it has held each kind. The zero
// Partial holds no aggregate: Kind reports false and no query conforms.
type Partial struct {
	kind Kind
	set  bool // built by Init, Assign or Refill; Clear unsets it
	val  int64
	a, b fm.Sketch
}

// Params configures sketch-backed partials.
type Params struct {
	// Vectors is the FM repetition count c.
	Vectors int
	// Bits is the FM vector width (the paper's l_M overestimate; 32 covers
	// networks up to 2^32 pseudo-elements, §5.2).
	Bits int
}

// DefaultParams matches the paper's evaluation defaults.
func DefaultParams() Params { return Params{Vectors: fm.DefaultVectors, Bits: fm.DefaultBits} }

// NewPartial initializes the partial aggregate for a host with attribute
// value v, using rng for the FM coin tosses (sketch kinds only).
func NewPartial(k Kind, v int64, params Params, rng *rand.Rand) *Partial {
	p := new(Partial)
	p.Init(k, v, params, rng)
	return p
}

// Init rebuilds p in place as NewPartial(k, v, params, rng), whatever kind
// and sketch dimensions it held: nothing it held shows through, and once
// its sketches have the storage for params it allocates nothing. The coins
// are drawn in NewPartial's order — avg's sum sketch first, then its count.
func (p *Partial) Init(k Kind, v int64, params Params, rng *rand.Rand) {
	a, b := p.Refill(k, v)
	switch k {
	case Count:
		a.Reset(params.Vectors, params.Bits)
		a.AddDistinct(rng)
	case Sum:
		a.Reset(params.Vectors, params.Bits)
		a.AddN(rng, v)
	case Avg:
		a.Reset(params.Vectors, params.Bits)
		b.Reset(params.Vectors, params.Bits)
		a.AddN(rng, v)
		b.AddDistinct(rng)
	}
}

// Refill makes p a partial of kind k for a caller to fill and returns the
// sketches k uses (Sketches). A min/max partial is set to v; a sketch
// partial ignores v, and its sketches keep whatever dimensions and bits
// they held until the caller overwrites them in full — fm.ReadPacked and
// Sketch.CopyFrom both reshape. A decoder that recycles its partials this
// way decodes without allocating.
func (p *Partial) Refill(k Kind, v int64) (a, b *fm.Sketch) {
	if k < Min || k > Avg {
		panic(fmt.Sprintf("agg: unknown kind %d", int(k)))
	}
	p.kind, p.set, p.val = k, true, v
	return p.Sketches()
}

// Assign makes p a deep copy of src in p's own storage — the in-place
// Clone a recycled snapshot takes.
func (p *Partial) Assign(src *Partial) {
	a, b := p.Refill(src.kind, src.val)
	sa, sb := src.Sketches()
	if a != nil {
		a.CopyFrom(sa)
	}
	if b != nil {
		b.CopyFrom(sb)
	}
	p.set = src.set
}

// Clear makes p hold no aggregate, as the zero Partial does, keeping its
// storage.
func (p *Partial) Clear() { p.set = false }

// Kind reports the aggregate kind p was built for, and false for a nil or
// zero partial, which holds none.
func (p *Partial) Kind() (Kind, bool) {
	if p == nil {
		return 0, false
	}
	return p.kind, p.set
}

// Scalar returns a min/max partial's value exactly; Result's float64
// rounds beyond 2^53, which the wire format must not.
func (p *Partial) Scalar() int64 { return p.val }

// Sketches returns the sketches p's kind uses, without allocating: a is
// the sole sketch for count/sum and the sum sketch for avg, b the avg
// count sketch (nil otherwise). Both nil for min/max.
func (p *Partial) Sketches() (a, b *fm.Sketch) {
	switch p.kind {
	case Count, Sum:
		return &p.a, nil
	case Avg:
		return &p.a, &p.b
	}
	return nil, nil
}

// Combine merges other into p and reports whether p changed (WILDFIRE
// only re-floods on change). It panics unless both hold an aggregate of
// one kind.
func (p *Partial) Combine(other *Partial) bool {
	if !p.set || !other.set || other.kind != p.kind {
		panic("agg: combining mismatched partials")
	}
	switch p.kind {
	case Min:
		if other.val < p.val {
			p.val = other.val
			return true
		}
	case Max:
		if other.val > p.val {
			p.val = other.val
			return true
		}
	case Count, Sum:
		return orInto(&p.a, &other.a)
	case Avg:
		sum, cnt := orInto(&p.a, &other.a), orInto(&p.b, &other.b)
		return sum || cnt
	}
	return false
}

// orInto merges src into dst and reports whether dst changed.
func orInto(dst, src *fm.Sketch) bool {
	if dst.Covers(src) {
		return false
	}
	dst.Or(src)
	return true
}

// Clone returns an independent deep copy, safe to hand to a message. A
// min/max clone carries no sketch storage.
func (p *Partial) Clone() *Partial {
	c := new(Partial)
	c.Assign(p)
	return c
}

// Equal reports whether two partials hold identical state.
func (p *Partial) Equal(other *Partial) bool {
	if p.kind != other.kind || p.set != other.set {
		return false
	}
	switch p.kind {
	case Count, Sum:
		return p.a.Equal(&other.a)
	case Avg:
		return p.a.Equal(&other.a) && p.b.Equal(&other.b)
	}
	return p.val == other.val
}

// Result converts the partial into the query answer; avg = sum/count (§5,
// Thm 5.3's "average" class), 0 over an empty count.
func (p *Partial) Result() float64 {
	switch p.kind {
	case Count, Sum:
		return p.a.Estimate()
	case Avg:
		c := p.b.Estimate()
		if c == 0 {
			return 0
		}
		return p.a.Estimate() / c
	}
	return float64(p.val)
}

// Conforms reports whether p is a partial a query of kind k with params
// could have built: non-nil, holding an aggregate of kind k, and for
// sketch kinds every sketch at params' dimensions. Combine panics on a
// partial of another kind and would take a zero one, which a MIN query
// reads as 0, for real: one that came off the wire is checked here before
// it meets the query's state.
func Conforms(p *Partial, k Kind, params Params) bool {
	if got, ok := p.Kind(); !ok || got != k {
		return false
	}
	a, b := p.Sketches()
	for _, sk := range [...]*fm.Sketch{a, b} {
		if sk != nil && (sk.Vectors() != params.Vectors || sk.Bits() != params.Bits) {
			return false
		}
	}
	return true
}
