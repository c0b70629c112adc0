// Package agg defines the aggregate queries of the paper — minimum,
// maximum, count, sum and average (§1, §5) — and the partial-aggregate
// states the protocols exchange.
//
// Two families of partials exist:
//
//   - Scalar partials for min/max, whose combine function is the query
//     itself and is naturally duplicate-insensitive (§5.1).
//   - Sketch partials for count/sum/avg, which carry Flajolet–Martin
//     bit-vectors whose combine function is bitwise OR (§5.2). Average is
//     a (sum, count) sketch pair.
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
type Partial interface {
	// Combine merges other into the receiver and reports whether the
	// receiver changed (WILDFIRE only re-floods on change).
	Combine(other Partial) bool
	// Clone returns an independent deep copy, safe to hand to a message.
	Clone() Partial
	// Equal reports whether two partials hold identical state.
	Equal(other Partial) bool
	// Result converts the partial into the query answer.
	Result() float64
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
func NewPartial(k Kind, v int64, p Params, rng *rand.Rand) Partial {
	return Init(nil, k, v, p, rng)
}

// Init is NewPartial into dst: dst itself when it is a partial of kind k,
// whatever its sketch dimensions, and a fresh one otherwise (dst nil
// included). Nothing dst held shows through, and a dst whose sketches have
// the storage for p allocates nothing.
func Init(dst Partial, k Kind, v int64, p Params, rng *rand.Rand) Partial {
	dst = Refill(dst, k, v)
	a, b := WireSketches(dst)
	switch k {
	case Count:
		a.Reset(p.Vectors, p.Bits)
		a.AddDistinct(rng)
	case Sum:
		a.Reset(p.Vectors, p.Bits)
		a.AddN(rng, v)
	case Avg:
		a.Reset(p.Vectors, p.Bits)
		b.Reset(p.Vectors, p.Bits)
		a.AddN(rng, v)
		b.AddDistinct(rng)
	}
	return dst
}

// scalarPartial carries min/max state.
type scalarPartial struct {
	kind Kind
	val  int64
}

func (s *scalarPartial) Combine(other Partial) bool {
	o, ok := other.(*scalarPartial)
	if !ok || o.kind != s.kind {
		panic("agg: combining mismatched partials")
	}
	switch {
	case s.kind == Min && o.val < s.val:
		s.val = o.val
		return true
	case s.kind == Max && o.val > s.val:
		s.val = o.val
		return true
	}
	return false
}

func (s *scalarPartial) Clone() Partial { c := *s; return &c }

func (s *scalarPartial) Equal(other Partial) bool {
	o, ok := other.(*scalarPartial)
	return ok && o.kind == s.kind && o.val == s.val
}

func (s *scalarPartial) Result() float64 { return float64(s.val) }

// ScalarValue returns a min/max partial's value exactly; Result's float64
// rounds beyond 2^53, which the wire format must not.
func ScalarValue(p Partial) (int64, bool) {
	s, ok := p.(*scalarPartial)
	if !ok {
		return 0, false
	}
	return s.val, true
}

// The sketch-backed partials hold their sketches by value: a partial and
// its vectors are two objects, so a clone is two allocations.

// countPartial carries an FM count sketch.
type countPartial struct{ sk fm.Sketch }

func (c *countPartial) Combine(other Partial) bool {
	o, ok := other.(*countPartial)
	if !ok {
		panic("agg: combining mismatched partials")
	}
	return orInto(&c.sk, &o.sk)
}

func (c *countPartial) Clone() Partial { return &countPartial{sk: c.sk.Copy()} }

func (c *countPartial) Equal(other Partial) bool {
	o, ok := other.(*countPartial)
	return ok && c.sk.Equal(&o.sk)
}

func (c *countPartial) Result() float64 { return c.sk.Estimate() }

// sumPartial carries an FM sum sketch.
type sumPartial struct{ sk fm.Sketch }

func (s *sumPartial) Combine(other Partial) bool {
	o, ok := other.(*sumPartial)
	if !ok {
		panic("agg: combining mismatched partials")
	}
	return orInto(&s.sk, &o.sk)
}

func (s *sumPartial) Clone() Partial { return &sumPartial{sk: s.sk.Copy()} }

func (s *sumPartial) Equal(other Partial) bool {
	o, ok := other.(*sumPartial)
	return ok && s.sk.Equal(&o.sk)
}

func (s *sumPartial) Result() float64 { return s.sk.Estimate() }

// avgPartial is a (sum, count) sketch pair; avg = sum/count (§5, Thm 5.3's
// "average" class).
type avgPartial struct {
	sum fm.Sketch
	cnt fm.Sketch
}

func (a *avgPartial) Combine(other Partial) bool {
	o, ok := other.(*avgPartial)
	if !ok {
		panic("agg: combining mismatched partials")
	}
	sum, cnt := orInto(&a.sum, &o.sum), orInto(&a.cnt, &o.cnt)
	return sum || cnt
}

func (a *avgPartial) Clone() Partial {
	return &avgPartial{sum: a.sum.Copy(), cnt: a.cnt.Copy()}
}

func (a *avgPartial) Equal(other Partial) bool {
	o, ok := other.(*avgPartial)
	return ok && a.sum.Equal(&o.sum) && a.cnt.Equal(&o.cnt)
}

func (a *avgPartial) Result() float64 {
	c := a.cnt.Estimate()
	if c == 0 {
		return 0
	}
	return a.sum.Estimate() / c
}

// orInto merges src into dst and reports whether dst changed.
func orInto(dst, src *fm.Sketch) bool {
	if dst.Covers(src) {
		return false
	}
	dst.Or(src)
	return true
}

// Refill returns a partial of kind k for a decoder to fill: dst itself
// when it is one already, a fresh one otherwise (dst nil included). A
// scalar partial is set to v; a sketch partial ignores v, and its sketches
// (WireSketches) keep whatever dimensions and bits they held until the
// caller overwrites them in full — fm.ReadPacked and Sketch.CopyFrom both
// reshape. Recycling partials this way, a receiver decodes without
// allocating.
func Refill(dst Partial, k Kind, v int64) Partial {
	switch k {
	case Min, Max:
		if s, ok := dst.(*scalarPartial); ok {
			*s = scalarPartial{kind: k, val: v}
			return s
		}
		return &scalarPartial{kind: k, val: v}
	case Count:
		if c, ok := dst.(*countPartial); ok {
			return c
		}
		return &countPartial{}
	case Sum:
		if s, ok := dst.(*sumPartial); ok {
			return s
		}
		return &sumPartial{}
	case Avg:
		if a, ok := dst.(*avgPartial); ok {
			return a
		}
		return &avgPartial{}
	default:
		panic(fmt.Sprintf("agg: unknown kind %d", int(k)))
	}
}

// Assign makes dst a deep copy of src and returns it: dst itself when it
// is a partial of src's kind, whatever its sketch dimensions, and a fresh
// one otherwise — the in-place Clone a recycled snapshot takes.
func Assign(dst, src Partial) Partial {
	k, ok := KindOf(src)
	if !ok {
		return src.Clone()
	}
	v, _ := ScalarValue(src)
	p := Refill(dst, k, v)
	pa, pb := WireSketches(p)
	sa, sb := WireSketches(src)
	if pa != nil {
		pa.CopyFrom(sa)
	}
	if pb != nil {
		pb.CopyFrom(sb)
	}
	return p
}

// KindOf reports the aggregate kind a partial was built for; the payload
// codecs need it to encode a partial.
func KindOf(p Partial) (Kind, bool) {
	switch v := p.(type) {
	case *scalarPartial:
		return v.kind, true
	case *countPartial:
		return Count, true
	case *sumPartial:
		return Sum, true
	case *avgPartial:
		return Avg, true
	default:
		return 0, false
	}
}

// Conforms reports whether p is a partial a query of kind k with params
// could have built: non-nil, of kind k, and for sketch kinds every sketch
// at params' dimensions. Combine panics on any other partial, so one that
// came off the wire is checked here before it meets the query's state.
func Conforms(p Partial, k Kind, params Params) bool {
	if got, ok := KindOf(p); !ok || got != k {
		return false
	}
	a, b := WireSketches(p)
	for _, sk := range [...]*fm.Sketch{a, b} {
		if sk != nil && (sk.Vectors() != params.Vectors || sk.Bits() != params.Bits) {
			return false
		}
	}
	return true
}

// WireSketches returns the sketches carried by p without allocating: a is
// the sole sketch for count/sum and the sum sketch for avg, b the avg
// count sketch (nil otherwise). Both nil for scalar partials. The wire
// codec reaches a partial's sketches through it on the send and the
// receive hot paths, where a per-call slice would be the only allocation.
func WireSketches(p Partial) (a, b *fm.Sketch) {
	switch v := p.(type) {
	case *countPartial:
		return &v.sk, nil
	case *sumPartial:
		return &v.sk, nil
	case *avgPartial:
		return &v.sum, &v.cnt
	}
	return nil, nil
}
