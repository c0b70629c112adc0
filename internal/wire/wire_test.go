package wire

import (
	"math/rand"
	"testing"
	"testing/quick"

	"validity/internal/agg"
)

func params() agg.Params { return agg.Params{Vectors: 8, Bits: 32} }

func TestScalarRoundTrip(t *testing.T) {
	for _, k := range []agg.Kind{agg.Min, agg.Max} {
		for _, v := range []int64{0, 1, -5, 1 << 40} {
			p := agg.NewPartial(k, v, params(), nil)
			buf, err := AppendPartial(nil, k, p)
			if err != nil {
				t.Fatal(err)
			}
			got, gotK, n, err := DecodePartial(buf)
			if err != nil {
				t.Fatal(err)
			}
			if gotK != k || n != len(buf) {
				t.Fatalf("kind=%v n=%d, want %v/%d", gotK, n, k, len(buf))
			}
			if !got.Equal(p) {
				t.Fatalf("%v(%d): round trip mismatch", k, v)
			}
		}
	}
}

func TestSketchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []agg.Kind{agg.Count, agg.Sum, agg.Avg} {
		p := agg.NewPartial(k, 123, params(), rng)
		// Fold in more state so the sketch is non-trivial.
		for i := 0; i < 20; i++ {
			p.Combine(agg.NewPartial(k, int64(i*7+1), params(), rng))
		}
		buf, err := AppendPartial(nil, k, p)
		if err != nil {
			t.Fatal(err)
		}
		got, gotK, n, err := DecodePartial(buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotK != k || n != len(buf) {
			t.Fatalf("kind=%v n=%d len=%d", gotK, n, len(buf))
		}
		if !got.Equal(p) {
			t.Fatalf("%v: round trip mismatch", k)
		}
		if got.Result() != p.Result() {
			t.Fatalf("%v: results differ after round trip", k)
		}
	}
}

func TestDecodePartialErrors(t *testing.T) {
	if _, _, _, err := DecodePartial(nil); err == nil {
		t.Fatal("empty partial accepted")
	}
	if _, _, _, err := DecodePartial([]byte{1, 0}); err == nil {
		t.Fatal("truncated scalar accepted")
	}
	if _, _, _, err := DecodePartial([]byte{3, 8}); err == nil {
		t.Fatal("truncated sketch header accepted")
	}
	if _, _, _, err := DecodePartial([]byte{3, 0, 32}); err == nil {
		t.Fatal("zero-vector sketch accepted")
	}
	if _, _, _, err := DecodePartial([]byte{3, 1, 99}); err == nil {
		t.Fatal("oversized bits accepted")
	}
	if _, _, _, err := DecodePartial([]byte{3, 4, 32, 0}); err == nil {
		t.Fatal("truncated sketch body accepted")
	}
	for name, buf := range hostileSketches() {
		if p, _, _, err := DecodePartial(buf); err == nil {
			t.Errorf("%s accepted: decoded to %v", name, p.Result())
		}
	}
	// The same bodies with the offending bits inside the width decode.
	if _, _, n, err := DecodePartial([]byte{3, 1, 31, 0xFF, 0xFF, 0xFF, 0x7F}); err != nil || n != 7 {
		t.Fatalf("a full 31-bit vector: n=%d err=%v", n, err)
	}
}

// hostileSketches are sketch partials no encoder produces: a vector with
// bits set at or above its declared width. Version 2 decoded them, and the
// stray bits then made Equal and Covers lie at every host they were OR-ed
// into. Shared by the error test and the fuzz seed corpus.
func hostileSketches() map[string][]byte {
	return map[string][]byte{
		"bits=31 count, bit 31 set":          {3, 1, 31, 0, 0, 0, 0x80},
		"bits=8 sum, bit 8 of vector 2 set":  {4, 2, 8, 1, 0, 0, 0, 0, 1, 0, 0},
		"bits=1 count, bit 1 set":            {3, 1, 1, 2, 0, 0, 0},
		"bits=33 count, bit 33 set":          {3, 1, 33, 0, 0, 0, 0, 2, 0, 0, 0},
		"bits=63 count, bit 63 set":          {3, 1, 63, 0, 0, 0, 0, 0, 0, 0, 0x80},
		"bits=16 avg, count sketch bit 16":   {5, 1, 16, 1, 0, 0, 0, 0, 0, 1, 0},
		"bits=12 count, third vector bit 12": {3, 3, 12, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0x10, 0, 0},
	}
}

// Combining after a round trip behaves identically to combining the
// original — the wire format is lossless for protocol purposes.
func TestCombineAfterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := agg.NewPartial(agg.Count, 1, params(), rng)
	b := agg.NewPartial(agg.Count, 1, params(), rng)
	buf, err := AppendPartial(nil, agg.Count, a)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, _, err := DecodePartial(buf)
	if err != nil {
		t.Fatal(err)
	}
	direct := b.Clone()
	direct.Combine(a)
	viaWire := b.Clone()
	viaWire.Combine(decoded)
	if !direct.Equal(viaWire) {
		t.Fatal("combine result differs after wire round trip")
	}
}

// Property: encoding is deterministic and parse-back stable for random
// sketch contents, and a decoded partial re-encodes to the same bytes.
func TestQuickPartialRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := agg.NewPartial(agg.Avg, int64(n)+1, params(), rng)
		for i := 0; i < int(n%16); i++ {
			p.Combine(agg.NewPartial(agg.Avg, int64(i+1), params(), rng))
		}
		buf1, err := AppendPartial(nil, agg.Avg, p)
		if err != nil {
			return false
		}
		buf2, _ := AppendPartial(nil, agg.Avg, p)
		if string(buf1) != string(buf2) {
			return false
		}
		got, k, used, err := DecodePartial(buf1)
		if err != nil || k != agg.Avg || used != len(buf1) || !got.Equal(p) {
			return false
		}
		buf3, err := AppendPartial(nil, k, got)
		return err == nil && string(buf3) == string(buf1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The paper claims small fixed-size messages (§6.3): a count partial with
// the default c=8, 32-bit vectors must encode in well under 100 bytes.
func TestMessageSizeSmallAndFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := make(map[int]bool)
	for i := 0; i < 10; i++ {
		p := agg.NewPartial(agg.Count, int64(i), params(), rng)
		for j := 0; j < i*10; j++ {
			p.Combine(agg.NewPartial(agg.Count, 1, params(), rng))
		}
		n, err := PartialSize(agg.Count, p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[n] = true
		if n != 3+8*4 {
			t.Fatalf("count partial is %d bytes, want 35: eight 32-bit vectors at their declared width", n)
		}
	}
	if len(sizes) != 1 {
		t.Fatalf("count partials vary in size: %v (must be fixed-size)", sizes)
	}
}

// PartialSize is arithmetic; it must agree with what AppendPartial writes
// for every kind, and every sketch kind must cost its lanes and no more.
func TestSizeOfMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	want := map[agg.Kind]int{agg.Min: 9, agg.Max: 9, agg.Count: 3 + 32, agg.Sum: 3 + 32, agg.Avg: 3 + 64}
	for k, size := range want {
		p := agg.NewPartial(k, 42, params(), rng)
		buf, err := AppendPartial(nil, k, p)
		if err != nil {
			t.Fatal(err)
		}
		n, err := PartialSize(k, p)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) || n != size {
			t.Fatalf("PartialSize(%v) = %d, AppendPartial wrote %d bytes, want %d", k, n, len(buf), size)
		}
	}
	// Vectors wider than 32 bits take an 8-byte lane each.
	wide := agg.NewPartial(agg.Count, 1, agg.Params{Vectors: 5, Bits: 40}, rng)
	if n, err := PartialSize(agg.Count, wide); err != nil || n != 3+5*8 {
		t.Fatalf("PartialSize of five 40-bit vectors = %d (%v), want 43", n, err)
	}
}

func TestSizeOfRejectsUnencodable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	big := agg.NewPartial(agg.Count, 1, agg.Params{Vectors: 300, Bits: 32}, rng)
	if _, err := AppendPartial(nil, agg.Count, big); err == nil {
		t.Fatal("AppendPartial accepted 300 vectors")
	}
	if _, err := PartialSize(agg.Count, big); err == nil {
		t.Fatal("PartialSize reported a size for a partial AppendPartial rejects")
	}
	avg := agg.NewPartial(agg.Avg, 1, params(), rng)
	if _, err := AppendPartial(nil, agg.Count, avg); err == nil {
		t.Fatal("AppendPartial wrote an avg partial under the count tag")
	}
	if _, err := AppendPartial(nil, agg.Min, avg); err == nil {
		t.Fatal("AppendPartial wrote a sketch partial as a scalar")
	}
}
