package fm

import (
	"fmt"
	"math"
	"math/bits"
)

// PCSA is the stochastic-averaging variant from the original
// Flajolet–Martin paper ("Probabilistic Counting with Stochastic
// Averaging"): instead of inserting every element into all c vectors —
// c geometric draws per insertion, as §5.2's operators do — each element
// is routed to one uniformly chosen vector and inserted there only. One
// draw per insertion, same OR-combine mergability, estimate
// c·2^z̄/φ.
//
// The repository's protocols use the paper's per-element-c encoding
// (Sketch); PCSA exists as the ablation partner: the
// BenchmarkAblationPCSA bench at the repository root compares insertion
// cost and accuracy of the two designs, and the tests pin that PCSA
// remains duplicate-insensitive under OR.
//
// One semantic difference matters for the distributed setting: two PCSA
// insertions of the *same* logical element must route to the same vector
// to stay duplicate-insensitive, so Add takes the element's hash rather
// than drawing the route from a private RNG. The §5.2 "each host pretends
// to have a distinct element" trick supplies that hash for free — a
// host's identity.
type PCSA struct {
	vecs []uint64
	bits int
}

// NewPCSA returns an empty PCSA synopsis with c vectors of `bits` bits.
func NewPCSA(c, bitsPerVec int) *PCSA {
	if c < 1 {
		panic("fm: PCSA needs at least one vector")
	}
	if bitsPerVec < 1 || bitsPerVec > 64 {
		panic(fmt.Sprintf("fm: PCSA bits must be in [1,64], got %d", bitsPerVec))
	}
	return &PCSA{vecs: make([]uint64, c), bits: bitsPerVec}
}

// Add inserts the element identified by hash. The low bits route to a
// vector; the remaining bits drive the geometric position, so equal
// hashes always set the same bit (duplicate insensitivity).
func (p *PCSA) Add(hash uint64) {
	c := uint64(len(p.vecs))
	vec := hash % c
	rest := hash / c
	b := bits.TrailingZeros64(rest | 1<<62)
	if b >= p.bits {
		b = p.bits - 1
	}
	p.vecs[vec] |= 1 << b
}

// Or merges other into p.
func (p *PCSA) Or(other *PCSA) {
	if len(p.vecs) != len(other.vecs) || p.bits != other.bits {
		panic("fm: OR of mismatched PCSA synopses")
	}
	for i := range p.vecs {
		p.vecs[i] |= other.vecs[i]
	}
}

// Equal reports bit-identical content.
func (p *PCSA) Equal(other *PCSA) bool {
	if len(p.vecs) != len(other.vecs) || p.bits != other.bits {
		return false
	}
	for i := range p.vecs {
		if p.vecs[i] != other.vecs[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (p *PCSA) Clone() *PCSA {
	return &PCSA{vecs: append([]uint64(nil), p.vecs...), bits: p.bits}
}

// Estimate returns c·2^z̄/φ, or 0 for an empty synopsis.
func (p *PCSA) Estimate() float64 {
	sum := 0.0
	empty := true
	for i := range p.vecs {
		if p.vecs[i] != 0 {
			empty = false
		}
		z := bits.TrailingZeros64(^p.vecs[i])
		if z > p.bits {
			z = p.bits
		}
		sum += float64(z)
	}
	if empty {
		return 0
	}
	z := sum / float64(len(p.vecs))
	return float64(len(p.vecs)) * math.Pow(2, z) / Phi
}
