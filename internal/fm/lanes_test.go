package fm

import (
	"bytes"
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

// wire is the sketch's wire form found the obvious way: the window by
// looking at one bit of every vector at a time.
func (r *refSketch) wire() []byte {
	every := func(b int) bool {
		for _, v := range r.vecs {
			if v>>b&1 == 0 {
				return false
			}
		}
		return true
	}
	lo, hi := 0, 0
	for _, v := range r.vecs {
		hi = max(hi, bits.Len64(v))
	}
	for lo < hi && every(lo) {
		lo++
	}
	return packBits(lo, hi-lo, r.vecs)
}

// packBits writes a window header and bits [lo, lo+width) of each vector
// after it, one bit at a time — whether or not that window is the
// vectors' own.
func packBits(lo, width int, vecs []uint64) []byte {
	buf := make([]byte, 2+(len(vecs)*width+7)/8)
	buf[0], buf[1] = byte(lo), byte(width)
	n := 0
	for _, v := range vecs {
		for b := lo; b < lo+width; b++ {
			buf[2+n/8] |= byte(v>>b&1) << (n % 8)
			n++
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
	if got, want := s.AppendPacked(nil), r.wire(); !bytes.Equal(got, want) || len(got) != s.PackedSize() {
		t.Fatalf("%s: wire form (PackedSize %d)\n got %x\nwant %x", what, s.PackedSize(), got, want)
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

				var back Sketch
				_, err := ReadPacked(&back, c, width, union.AppendPacked(nil))
				if err != nil {
					t.Fatalf("ReadPacked rejects AppendPacked's output: %v", err)
				}
				agree(t, "wire round trip", &back, runion)
				if !back.Equal(union) {
					t.Fatal("wire round trip is not Equal to its source")
				}
			})
		}
	}
}

// Only the bytes AppendPacked writes decode. For every window a header can
// name, vectors that occupy exactly that window are accepted iff it lies
// inside the declared width — so no decoded vector has a bit at or above
// it — and each way of writing the same vectors under a wider window, of
// padding them, or of cutting them short is rejected.
func TestReadPackedRejectsWhatAppendPackedNeverWrites(t *testing.T) {
	const c = 3 // odd: the last vector has no lane-mate in storage
	for _, bits := range []int{1, 8, 31, 32, 33, 63, 64} {
		for lo := 0; lo <= bits+1; lo++ {
			for width := 0; lo+width <= bits+1; width++ {
				ones := uint64(1)<<lo - 1
				vecs := []uint64{ones, ones, ones}
				if width > 0 {
					vecs[0] |= 1 << (lo + width - 1)        // the window's top bit, in one vector
					vecs[1] |= (uint64(1)<<width - 2) << lo // bit lo clear in another
				}
				body := packBits(lo, width, vecs)
				var s Sketch
				n, err := ReadPacked(&s, c, bits, body)
				if ok := lo+width <= bits; ok != (err == nil) {
					t.Fatalf("bits=%d window [%d,%d): err = %v", bits, lo, lo+width, err)
				}
				if err != nil {
					continue
				}
				for i, want := range vecs {
					if s.lane(i) != want {
						t.Fatalf("bits=%d window [%d,%d): vector %d = %#x, want %#x", bits, lo, lo+width, i, s.lane(i), want)
					}
				}
				if n != len(body) || !bytes.Equal(s.AppendPacked(nil), body) {
					t.Fatalf("bits=%d window [%d,%d): took %d of %d bytes, re-encodes to %x", bits, lo, lo+width, n, len(body), s.AppendPacked(nil))
				}
				hostile := map[string][]byte{"cut short": body[:len(body)-1]}
				if lo > 0 {
					hostile["window starts a bit early"] = packBits(lo-1, width+1, vecs)
				}
				if lo+width < bits {
					hostile["window ends a bit late"] = packBits(lo, width+1, vecs)
				}
				if pad := (8 - c*width%8) % 8; pad > 0 {
					padded := append([]byte(nil), body...)
					padded[len(padded)-1] |= 0x80
					hostile["padding bit set"] = padded
				}
				for name, h := range hostile {
					if _, err := ReadPacked(new(Sketch), c, bits, h); err == nil {
						t.Fatalf("bits=%d window [%d,%d): %s (%x) accepted", bits, lo, lo+width, name, h)
					}
				}
			}
		}
	}
	for _, dims := range [][2]int{{0, 32}, {8, 0}, {8, 65}} {
		if _, err := ReadPacked(new(Sketch), dims[0], dims[1], []byte{0, 0}); err == nil {
			t.Fatalf("a %d×%d sketch decoded", dims[0], dims[1])
		}
	}
}
