package fm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refSketch is the reference model for the lane layout: one vector per
// uint64, every operation written the obvious way. Sketch must agree with
// it bit for bit while drawing the same coins in the same order — every
// estimate, golden row and figure in the repository rests on that.
type refSketch struct {
	vecs []uint64
	bits int
}

func (r *refSketch) addDistinct(rng *rand.Rand) {
	for i := range r.vecs {
		r.vecs[i] |= 1 << geometricBit(rng, r.bits)
	}
}

func (r *refSketch) addN(rng *rand.Rand, n int64) {
	if n <= addNExactThreshold {
		for ; n > 0; n-- {
			r.addDistinct(rng)
		}
		return
	}
	for i := range r.vecs {
		for b := 0; b < r.bits; b++ {
			if r.vecs[i]&(1<<b) != 0 {
				continue
			}
			p := math.Pow(2, -float64(b+1))
			if b == r.bits-1 {
				p = math.Pow(2, -float64(b))
			}
			if rng.Float64() < -math.Expm1(float64(n)*math.Log1p(-p)) {
				r.vecs[i] |= 1 << b
			}
		}
	}
}

func (r *refSketch) or(o *refSketch) {
	for i := range r.vecs {
		r.vecs[i] |= o.vecs[i]
	}
}

func (r *refSketch) equal(o *refSketch) bool {
	for i := range r.vecs {
		if r.vecs[i] != o.vecs[i] {
			return false
		}
	}
	return true
}

func (r *refSketch) covers(o *refSketch) bool {
	for i := range r.vecs {
		if o.vecs[i]&^r.vecs[i] != 0 {
			return false
		}
	}
	return true
}

func (r *refSketch) estimate() float64 {
	sum, empty := 0.0, true
	for _, v := range r.vecs {
		if v != 0 {
			empty = false
		}
		sum += float64(min(bits.TrailingZeros64(^v), r.bits))
	}
	if empty {
		return 0
	}
	return math.Pow(2, sum/float64(len(r.vecs))) / Phi
}

// wire is the version-3 sketch body: each vector little-endian at its
// lane width.
func (r *refSketch) wire() []byte {
	var buf []byte
	for _, v := range r.vecs {
		if r.bits <= 32 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	return buf
}

// agree fails unless s holds exactly the model's vectors, estimates the
// same and encodes to the model's bytes.
func agree(t *testing.T, what string, s *Sketch, r *refSketch) {
	t.Helper()
	for i, want := range r.vecs {
		if got := s.lane(i); got != want {
			t.Fatalf("%s: vector %d = %#x, model %#x", what, i, got, want)
		}
	}
	if got, want := s.Estimate(), r.estimate(); got != want {
		t.Fatalf("%s: estimate %v, model %v", what, got, want)
	}
	size := WireSize(s.Vectors(), s.Bits())
	if got, want := s.AppendWords(nil), r.wire(); !bytes.Equal(got, want) || len(got) != size {
		t.Fatalf("%s: wire form (WireSize %d)\n got %x\nwant %x", what, size, got, want)
	}
	if s.bits <= 32 && s.c%2 == 1 && s.words[len(s.words)-1]>>32 != 0 {
		t.Fatalf("%s: padding lane of an odd sketch is not zero", what)
	}
}

func TestLaneLayoutMatchesReferenceModel(t *testing.T) {
	for _, c := range []int{1, 7, 8, 64, 255} {
		for _, width := range []int{1, 31, 32, 33, 64} {
			t.Run(fmt.Sprintf("c=%d/bits=%d", c, width), func(t *testing.T) {
				seed := int64(c*100 + width)
				rngS, rngR := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				build := func(distinct int, small, large int64) (*Sketch, *refSketch) {
					s, r := NewSketch(c, width), &refSketch{vecs: make([]uint64, c), bits: width}
					for i := 0; i < distinct; i++ {
						s.AddDistinct(rngS)
						r.addDistinct(rngR)
					}
					s.AddN(rngS, small) // literal insertion
					r.addN(rngR, small)
					s.AddN(rngS, large) // per-bit fast path
					r.addN(rngR, large)
					return s, r
				}
				sa, ra := build(3, 17, 0)
				agree(t, "AddDistinct+AddN exact", sa, ra)
				sb, rb := build(0, 0, 5000)
				agree(t, "AddN fast", sb, rb)
				if a, b := rngS.Int63(), rngR.Int63(); a != b {
					t.Fatal("the sketch and the model drew different numbers of coins")
				}
				for _, p := range []struct {
					x, y   *Sketch
					rx, ry *refSketch
				}{{sa, sb, ra, rb}, {sb, sa, rb, ra}, {sa, sa.Clone(), ra, ra}} {
					if got, want := p.x.Equal(p.y), p.rx.equal(p.ry); got != want {
						t.Fatalf("Equal = %v, model %v", got, want)
					}
					if got, want := p.x.Covers(p.y), p.rx.covers(p.ry); got != want {
						t.Fatalf("Covers = %v, model %v", got, want)
					}
				}
				union, runion := sa.Clone(), &refSketch{vecs: append([]uint64(nil), ra.vecs...), bits: width}
				union.Or(sb)
				runion.or(rb)
				agree(t, "Or", union, runion)
				if !union.Covers(sa) || !union.Covers(sb) {
					t.Fatal("the union does not cover its inputs")
				}
				agree(t, "Or left its argument alone", sb, rb)

				back, err := ReadWords(c, width, union.AppendWords(nil))
				if err != nil {
					t.Fatalf("ReadWords rejects AppendWords' output: %v", err)
				}
				agree(t, "wire round trip", &back, runion)
				if !back.Equal(union) {
					t.Fatal("wire round trip is not Equal to its source")
				}
			})
		}
	}
}

// A body with a bit at or above the declared width never decodes: for
// every width that leaves room in its lane, setting any one such bit in
// any lane is rejected, and every in-width bit is accepted.
func TestReadWordsRejectsBitsAboveWidth(t *testing.T) {
	for _, width := range []int{1, 8, 31, 32, 33, 63, 64} {
		const c = 3 // odd: the last vector has no lane-mate on the wire
		lane := WireSize(c, width) / c * 8
		for v := 0; v < c; v++ {
			for b := 0; b < lane; b++ {
				body := make([]byte, WireSize(c, width))
				body[v*lane/8+b/8] = 1 << (b % 8)
				_, err := ReadWords(c, width, body)
				if ok := b < width; ok != (err == nil) {
					t.Fatalf("bits=%d: vector %d bit %d: err = %v", width, v, b, err)
				}
			}
		}
	}
}
