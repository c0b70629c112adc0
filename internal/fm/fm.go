// Package fm implements Flajolet–Martin probabilistic counting [FM83] and
// the paper's duplicate-insensitive distributed count and sum operators
// built on it (§5.2).
//
// A Sketch holds c bit-vectors B_1..B_c. Inserting one (distinct) element
// sets, in each vector, bit b where b is geometrically distributed:
// Pr[b = i] = 2^{-(i+1)} — the "coin toss sequence" of §5.2. Two sketches
// are combined with bitwise OR, which is commutative, associative and
// idempotent, so re-combining the same partial any number of times leaves
// the result unchanged; that is precisely the duplicate insensitivity the
// WILDFIRE convergecast needs.
//
// The estimate is 2^z̄/φ where z_i is the index of the lowest zero bit of
// B_i, z̄ their mean, and φ ≈ 0.77351 the Flajolet–Martin correction
// constant.
//
// For the sum operator a host holding value h inserts h distinct
// pseudo-elements (§5.2). AddN does this literally for small h and
// switches to an exact-distribution per-bit sampling fast path for large
// h; the ablation bench in the repository root measures the difference and
// a property test checks the two paths are statistically indistinguishable.
package fm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// Phi is the Flajolet–Martin bias correction constant: E[2^z] ≈ φ·m.
const Phi = 0.77351

// DefaultVectors is the repetition count c the paper finds sufficient
// ("the number of repetitions required are small (≈ 8)", §6.4).
const DefaultVectors = 8

// DefaultBits is the bit-vector length. The paper sizes vectors at
// O(log |V|) and notes 32 bits suffice unless |H| > 2^32 (§5.2).
const DefaultBits = 32

// Sketch is an FM synopsis: c bit-vectors of up to 64 bits each, stored at
// their declared width. Vectors of at most 32 bits are packed into 32-bit
// lanes, two per word (vector i sits in word i/2, the odd one in the high
// half; an odd c leaves the top lane zero for good); wider vectors take a
// word each. Or, Equal, Covers and Copy are loops over whole words either
// way. On the wire a sketch is its occupied window alone — the bits
// between the run of ones every vector starts with and the highest bit any
// vector has set (AppendPacked, ReadPacked).
type Sketch struct {
	words   []uint64
	c, bits int32
}

// MakeSketch returns an empty sketch with c vectors of `bits` bits
// (1 ≤ bits ≤ 64) by value, for holders that embed it.
func MakeSketch(c, bits int) Sketch {
	var s Sketch
	s.Reset(c, bits)
	return s
}

// Reset makes s an empty sketch with c vectors of `bits` bits
// (1 ≤ bits ≤ 64), on the storage it has when that is large enough: a
// recycled sketch starts over without allocating.
func (s *Sketch) Reset(c, bits int) {
	if c < 1 {
		panic("fm: need at least one vector")
	}
	if bits < 1 || bits > 64 {
		panic(fmt.Sprintf("fm: bits must be in [1,64], got %d", bits))
	}
	s.reshape(c, bits)
	clear(s.words)
}

// numWords is the storage of a c×bits sketch: two vectors a word up to 32
// bits, one above.
func numWords(c, bits int) int {
	if bits <= 32 {
		return (c + 1) / 2
	}
	return c
}

// reshape gives s the dimensions c×bits, on the storage it has when that
// is large enough; what the words hold is left for the caller to overwrite.
func (s *Sketch) reshape(c, bits int) {
	if n := numWords(c, bits); cap(s.words) >= n {
		s.words = s.words[:n]
	} else {
		s.words = make([]uint64, n)
	}
	s.c, s.bits = int32(c), int32(bits)
}

// NewSketch is MakeSketch on the heap.
func NewSketch(c, bits int) *Sketch {
	s := MakeSketch(c, bits)
	return &s
}

// Vectors returns c, the number of bit-vectors.
func (s *Sketch) Vectors() int { return int(s.c) }

// Bits returns the length of each bit-vector.
func (s *Sketch) Bits() int { return int(s.bits) }

// Copy returns a deep copy by value.
func (s *Sketch) Copy() Sketch {
	return Sketch{words: append([]uint64(nil), s.words...), c: s.c, bits: s.bits}
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := s.Copy()
	return &c
}

// CopyFrom makes s a deep copy of src, dimensions included, in the storage
// s already has when it is large enough: a recycled sketch takes another's
// state without allocating.
func (s *Sketch) CopyFrom(src *Sketch) {
	s.reshape(int(src.c), int(src.bits))
	copy(s.words, src.words)
}

// or merges the bits of v into vector i.
func (s *Sketch) or(i int, v uint64) {
	if s.bits <= 32 {
		s.words[i>>1] |= v << (uint(i&1) << 5)
	} else {
		s.words[i] |= v
	}
}

// lane returns vector i, zero-extended.
func (s *Sketch) lane(i int) uint64 {
	if s.bits <= 32 {
		return uint64(uint32(s.words[i>>1] >> (uint(i&1) << 5)))
	}
	return s.words[i]
}

// geometricBit draws the index of the last Tail before the first Head in a
// fair coin-toss sequence: Pr[b=i] = 2^{-(i+1)}, truncated to the vector
// width.
func geometricBit(rng *rand.Rand, width int) int {
	// A 63-bit uniform word: the number of trailing zeros is geometric.
	u := rng.Int63()
	b := bits.TrailingZeros64(uint64(u) | 1<<62) // guarantee termination
	if b >= width {
		b = width - 1
	}
	return b
}

// AddDistinct inserts one element assumed distinct from all others (each
// host "pretends to have an element distinct from other hosts", §5.2).
func (s *Sketch) AddDistinct(rng *rand.Rand) {
	for i := 0; i < int(s.c); i++ {
		s.or(i, 1<<geometricBit(rng, int(s.bits)))
	}
}

// addNExactThreshold is the addend size above which AddN switches from
// literal repeated insertion to the per-bit Bernoulli fast path.
const addNExactThreshold = 64

// AddN inserts n distinct pseudo-elements, the §5.2 sum encoding: a host
// with value n contributes n elements, OR-folded locally into one sketch.
func (s *Sketch) AddN(rng *rand.Rand, n int64) {
	if n <= 0 {
		return
	}
	if n <= addNExactThreshold {
		for k := int64(0); k < n; k++ {
			s.AddDistinct(rng)
		}
		return
	}
	s.addNFast(rng, n)
}

// addNFast sets each bit independently with its exact marginal probability
// 1 − (1 − p_b)^n, p_b = 2^{-(b+1)} (bit widths capped: the top bit
// absorbs the geometric tail). Bits of a vector are not independent under
// literal insertion, but the estimator depends only on the lowest zero
// bit, whose distribution is governed by the marginals of the low bits,
// where the dependence is negligible for large n; the property test
// TestSumFastPathMatchesExact quantifies this. The marginals depend on n
// and the bit alone, so they are computed once per call; every vector
// draws one rng.Float64 per unset bit against them.
func (s *Sketch) addNFast(rng *rand.Rand, n int64) {
	width := int(s.bits)
	var q [64]float64
	for b := 0; b < width; b++ {
		var p float64
		if b == width-1 {
			p = math.Pow(2, -float64(b)) // tail mass 2^{-b}
		} else {
			p = math.Pow(2, -float64(b+1))
		}
		q[b] = -math.Expm1(float64(n) * math.Log1p(-p)) // 1-(1-p)^n
	}
	for i := 0; i < int(s.c); i++ {
		had, add := s.lane(i), uint64(0)
		for b := 0; b < width; b++ {
			if had&(1<<b) == 0 && rng.Float64() < q[b] {
				add |= 1 << b
			}
		}
		s.or(i, add)
	}
}

// sameShape reports whether the two sketches have identical dimensions.
func (s *Sketch) sameShape(other *Sketch) bool { return s.c == other.c && s.bits == other.bits }

// Or merges other into s (bitwise OR per vector). Both sketches must have
// identical dimensions.
func (s *Sketch) Or(other *Sketch) {
	if !s.sameShape(other) {
		panic(fmt.Sprintf("fm: OR of mismatched sketches (%d/%d vs %d/%d)",
			s.c, s.bits, other.c, other.bits))
	}
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// Equal reports whether two sketches have identical bit content.
func (s *Sketch) Equal(other *Sketch) bool {
	return s.sameShape(other) && slices.Equal(s.words, other.words)
}

// Covers reports whether every bit set in other is also set in s; used to
// verify sketch-level Single-Site Validity (the query host's final sketch
// must cover the OR of all H_C sketches and be covered by the OR of all
// H_U sketches).
func (s *Sketch) Covers(other *Sketch) bool {
	if !s.sameShape(other) {
		return false
	}
	for i, w := range other.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Estimate returns the FM cardinality estimate 2^z̄/φ, or 0 for an empty
// sketch. z_i is the index of the lowest 0 bit of vector i (equal to bits
// if the vector is saturated).
func (s *Sketch) Estimate() float64 {
	sum, union, width := 0, uint64(0), int(s.bits)
	for _, w := range s.words {
		union |= w
		if width <= 32 { // two lanes; an odd sketch's zero padding lane adds 0
			sum += min(bits.TrailingZeros32(^uint32(w)), width) + min(bits.TrailingZeros32(^uint32(w>>32)), width)
		} else {
			sum += min(bits.TrailingZeros64(^w), width)
		}
	}
	if union == 0 {
		return 0
	}
	z := float64(sum) / float64(s.c)
	return math.Pow(2, z) / Phi
}

// String summarizes the sketch.
func (s *Sketch) String() string {
	return fmt.Sprintf("fm.Sketch{c=%d bits=%d est=%.1f}", s.c, s.bits, s.Estimate())
}

// window is the sketch's occupied bit range [lo, lo+width): lo is the
// number of trailing ones of the AND of all vectors, lo+width the bit
// length of their OR, so every vector is ones below it and zeros above and
// no narrower window holds what differs between them.
func (s *Sketch) window() (lo, width int) {
	last := len(s.words) - 1
	tail := s.words[last]
	if s.bits <= 32 && s.c&1 == 1 {
		tail |= tail << 32 // the padding lane of an odd sketch mirrors its mate
	}
	or, and := tail, tail
	for _, w := range s.words[:last] {
		or, and = or|w, and&w
	}
	if s.bits <= 32 { // fold the two lanes
		or, and = uint64(uint32(or|or>>32)), and&(and>>32)
	}
	lo = bits.TrailingZeros64(^and)
	return lo, bits.Len64(or) - lo
}

// PackedSize is the number of bytes AppendPacked appends: two for the
// window, then width bits a vector — from 2 bytes (all vectors the same
// run of ones, the empty sketch included) to 2 + ⌈c×bits/8⌉.
func (s *Sketch) PackedSize() int {
	_, width := s.window()
	return 2 + (int(s.c)*width+7)/8
}

// AppendPacked appends the sketch's wire form to buf and returns the
// extended slice:
//
//	lo u8 | width u8 | vectors × width bits
//
// Only the occupied window travels: bits [lo, lo+width) of each vector,
// bit-packed LSB-first with vector 0 first and the last byte zero-padded.
// It allocates nothing when buf has room: encoders on the send hot path
// (internal/wire) must not copy the vectors per frame.
func (s *Sketch) AppendPacked(buf []byte) []byte {
	lo, width := s.window()
	buf = append(buf, uint8(lo), uint8(width))
	if width == 0 {
		return buf
	}
	start, size := len(buf), (int(s.c)*width+7)/8
	buf = slices.Grow(buf, size)[:start+size]
	s.pack(buf[start:], uint(lo), uint(width))
	return buf
}

// pack fills out, which is exactly long enough, with bits [lo, lo+w) of
// every vector: two-lane words send their two vectors side by side, and an
// odd sketch's last vector, like every vector wider than 32 bits, goes
// alone. The &63 on the shift counts of the two-lane loops, here and in
// unpack, push and pull, change nothing — fill < 64 always, and vectors of
// at most 32 bits have lo and w ≤ 32 — but say so to the compiler, which
// otherwise guards every shift on the path each frame takes.
func (s *Sketch) pack(out []byte, lo, w uint) {
	mask, acc, fill, pairs := uint64(1)<<w-1, uint64(0), uint(0), 0
	if s.bits <= 32 {
		pairs = int(s.c / 2)
	}
	for _, word := range s.words[:pairs] {
		t := word >> (lo & 63)
		out, acc, fill = push(out, acc, fill, t&mask|t>>32&mask<<(w&63), 2*w)
	}
	for _, word := range s.words[pairs:] {
		out, acc, fill = push(out, acc, fill, word>>lo&mask, w)
	}
	for i := range out {
		out[i] = byte(acc)
		acc >>= 8
	}
}

// push adds the low n ≤ 64 bits of v to a bit stream: acc holds the fill
// (< 64) bits not yet written to out, and a v that takes it to 64 flushes
// a word and leaves its own overflow behind.
func push(out []byte, acc uint64, fill uint, v uint64, n uint) ([]byte, uint64, uint) {
	acc |= v << (fill & 63)
	if fill += n; fill >= 64 {
		binary.LittleEndian.PutUint64(out, acc)
		out, fill = out[8:], fill-64
		acc = v >> (n - fill)
	}
	return out, acc, fill
}

// ReadPacked is AppendPacked's inverse: it reads one c×bits sketch from
// the front of buf into dst, refilling the bits below the window with
// ones, and returns the number of bytes it took. dst is reshaped to c×bits
// on the storage it has when that is large enough and every word is
// overwritten, so whatever it held before — other dimensions, any bits —
// does not show through; on an error what it holds is unspecified. Only
// the bytes AppendPacked writes for that sketch are accepted. A window
// that reaches past the declared width, is wider than what the vectors
// occupy, or is followed by non-zero padding is an error: a bit at or above
// the declared width, OR-ed into a host's state, would break Equal and
// Covers there for good.
func ReadPacked(dst *Sketch, c, bits int, buf []byte) (int, error) {
	if c < 1 || bits < 1 || bits > 64 {
		return 0, fmt.Errorf("fm: invalid sketch dimensions %d/%d", c, bits)
	}
	if len(buf) < 2 {
		return 0, fmt.Errorf("fm: truncated sketch window")
	}
	lo, width := int(buf[0]), int(buf[1])
	if lo+width > bits {
		return 0, fmt.Errorf("fm: window [%d,%d) reaches past the vector width %d", lo, lo+width, bits)
	}
	size := 2 + (c*width+7)/8
	if len(buf) < size {
		return 0, fmt.Errorf("fm: truncated sketch body (%d < %d)", len(buf), size)
	}
	dst.reshape(c, bits)
	if dst.unpack(buf[2:size], uint(lo), uint(width)) != 0 {
		return 0, fmt.Errorf("fm: non-zero padding after the last vector")
	}
	if l, w := dst.window(); l != lo || w != width {
		return 0, fmt.Errorf("fm: window [%d,%d) is wider than the vectors' own [%d,%d)", lo, lo+width, l, l+w)
	}
	return size, nil
}

// unpack is pack's inverse: every vector gets ones below lo and the next w
// bits of in above them, every word is written whole (an odd sketch's
// padding lane zero), and it returns the bits of in that follow the last
// vector's.
func (s *Sketch) unpack(in []byte, lo, w uint) uint64 {
	mask, ones := uint64(1)<<w-1, uint64(1)<<lo-1
	acc, fill, v, pairs := uint64(0), uint(0), uint64(0), 0
	if s.bits <= 32 {
		pairs = int(s.c / 2)
	}
	for i := range s.words[:pairs] {
		in, acc, fill, v = pull(in, acc, fill, 2*w)
		s.words[i] = (v&mask|v>>(w&63)&mask<<32)<<(lo&63) | ones | ones<<32
	}
	for i := pairs; i < len(s.words); i++ {
		in, acc, fill, v = pull(in, acc, fill, w)
		s.words[i] = v&mask<<lo | ones
	}
	return acc
}

// pull is push's inverse: acc holds the fill (< 64) bits loaded from in
// and not yet taken; a take of n that needs more loads the next eight bytes
// (the zero-extended tail, at the end of in). Bits of v above n are junk.
func pull(in []byte, acc uint64, fill, n uint) ([]byte, uint64, uint, uint64) {
	if fill >= n {
		return in, acc >> (n & 63), fill - n, acc
	}
	var word [8]byte
	in = in[copy(word[:], in):]
	next := binary.LittleEndian.Uint64(word[:])
	return in, next >> (n - fill), fill + 64 - n, acc | next<<(fill&63)
}

// CountSet builds the count synopsis for a set of m distinct elements in
// one shot (the centralized FM algorithm used in §6.4's accuracy
// experiment): it inserts m distinct elements into a fresh sketch.
func CountSet(m int, c, bitsPerVec int, rng *rand.Rand) *Sketch {
	s := NewSketch(c, bitsPerVec)
	for i := 0; i < m; i++ {
		s.AddDistinct(rng)
	}
	return s
}

// SumSet builds the sum synopsis of the given values (each value v
// contributes v distinct pseudo-elements), as a centralized reference for
// the distributed sum operator.
func SumSet(values []int64, c, bitsPerVec int, rng *rand.Rand) *Sketch {
	s := NewSketch(c, bitsPerVec)
	for _, v := range values {
		s.AddN(rng, v)
	}
	return s
}
