package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"validity/internal/agg"
)

func params() agg.Params { return agg.Params{Vectors: 8, Bits: 32} }

// decode is DecodePartial into a fresh partial, with the kind it decoded.
func decode(buf []byte) (*agg.Partial, agg.Kind, int, error) {
	p := new(agg.Partial)
	n, err := DecodePartial(p, buf)
	k, _ := p.Kind()
	return p, k, n, err
}

func TestScalarRoundTrip(t *testing.T) {
	for _, k := range []agg.Kind{agg.Min, agg.Max} {
		for _, v := range []int64{0, 1, -5, 1 << 40} {
			p := agg.NewPartial(k, v, params(), nil)
			buf, err := AppendPartial(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			got, gotK, n, err := decode(buf)
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
		buf, err := AppendPartial(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		got, gotK, n, err := decode(buf)
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
	if _, _, _, err := decode(nil); err == nil {
		t.Fatal("empty partial accepted")
	}
	if _, _, _, err := decode([]byte{1, 0}); err == nil {
		t.Fatal("truncated scalar accepted")
	}
	if _, _, _, err := decode([]byte{3, 8}); err == nil {
		t.Fatal("truncated sketch header accepted")
	}
	if _, _, _, err := decode([]byte{3, 0, 32}); err == nil {
		t.Fatal("zero-vector sketch accepted")
	}
	if _, _, _, err := decode([]byte{3, 1, 99}); err == nil {
		t.Fatal("oversized bits accepted")
	}
	if _, _, _, err := decode([]byte{3, 4, 32, 0}); err == nil {
		t.Fatal("truncated sketch window accepted")
	}
	for name, buf := range hostileSketches() {
		if p, _, _, err := decode(buf); err == nil {
			t.Errorf("%s accepted: decoded to %v", name, p.Result())
		}
	}
	// The same windows, minimal and inside the width, decode — from the
	// front of a longer buffer too.
	if _, _, n, err := decode([]byte{3, 1, 31, 0, 31, 0xFE, 0xFF, 0xFF, 0x7F}); err != nil || n != 9 {
		t.Fatalf("a 31-bit vector with all bits but the lowest: n=%d err=%v", n, err)
	}
	if _, _, n, err := decode([]byte{3, 2, 32, 0, 4, 0x98, 0xEE}); err != nil || n != 6 {
		t.Fatalf("vectors 0x8 and 0x9, then a stray byte: n=%d err=%v", n, err)
	}
}

// hostileSketches are sketch partials no encoder produces: a window that
// reaches past the declared width — the bit above it would make Equal and
// Covers lie at every host it was OR-ed into — or that is wider than the
// vectors it holds, padding that is not zero, a body cut short, and a
// version-3 body as it stood on the wire. Shared by the error test and the
// fuzz seed corpus.
func hostileSketches() map[string][]byte {
	return map[string][]byte{
		"bits=31 count, window [0,32)":              {3, 1, 31, 0, 32, 0, 0, 0, 0x80},
		"bits=8 sum, window [7,9)":                  {4, 2, 8, 7, 2, 0x0A},
		"bits=63 count, lo=64":                      {3, 1, 63, 64, 0},
		"top bit of the window clear everywhere":    {3, 2, 32, 0, 4, 0x32},
		"bottom bit of the window set everywhere":   {3, 2, 32, 0, 4, 0x9B},
		"padding bit set":                           {3, 3, 32, 0, 2, 0x46},
		"bits=16 avg, count window not minimal":     {5, 1, 16, 0, 2, 0x02, 0, 3, 0x03},
		"bits=12 count, third vector cut off":       {3, 3, 12, 0, 12, 0x01, 0x10, 0x00, 0x08},
		"version-3 body: vectors 0x2107 and 0x000F": {3, 2, 32, 0x07, 0x21, 0, 0, 0x0F, 0, 0, 0},
	}
}

// Combining after a round trip behaves identically to combining the
// original — the wire format is lossless for protocol purposes.
func TestCombineAfterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := agg.NewPartial(agg.Count, 1, params(), rng)
	b := agg.NewPartial(agg.Count, 1, params(), rng)
	buf, err := AppendPartial(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, _, err := decode(buf)
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
		buf1, err := AppendPartial(nil, p)
		if err != nil {
			return false
		}
		buf2, _ := AppendPartial(nil, p)
		if string(buf1) != string(buf2) {
			return false
		}
		got, k, used, err := decode(buf1)
		if err != nil || k != agg.Avg || used != len(buf1) || !got.Equal(p) {
			return false
		}
		buf3, err := AppendPartial(nil, got)
		return err == nil && string(buf3) == string(buf1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The paper claims small fixed-size messages (§6.3): a count partial with
// the default c=8, 32-bit vectors never costs more than its declared
// width and the window header, and what a handful of hosts combine to
// costs well under it.
func TestMessageSizeSmallAndFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const declared = 3 + 8*4 // eight 32-bit vectors, unpacked
	for i := 0; i < 10; i++ {
		p := agg.NewPartial(agg.Count, int64(i), params(), rng)
		for j := 0; j < i*10; j++ {
			p.Combine(agg.NewPartial(agg.Count, 1, params(), rng))
		}
		n, err := PartialSize(p)
		if err != nil {
			t.Fatal(err)
		}
		if n >= declared {
			t.Fatalf("count partial of %d hosts is %d bytes, not below its declared width's %d", 1+i*10, n, declared)
		}
	}
	// The bound: vectors that share no low run and reach the top bit.
	full, _, _, err := decode(append([]byte{3, 8, 32, 0, 32}, bytes.Repeat([]byte{0, 0, 0, 0x80, 0xFE, 0xFF, 0xFF, 0xFF}, 4)...))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := PartialSize(full); err != nil || n != declared+2 {
		t.Fatalf("a full-width count partial is %d bytes (%v), want %d", n, err, declared+2)
	}
}

// PartialSize is computed, not encoded; it must agree with what
// AppendPartial writes for every kind, and every sketch kind must cost its
// windows and no more.
func TestSizeOfMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, want := range []struct {
		k    agg.Kind
		size int
	}{
		{agg.Min, 9}, {agg.Max, 9},
		{agg.Count, 3 + 2 + 4},   // one element: a window of 4 bits, eight vectors in 4 bytes
		{agg.Sum, 3 + 2 + 5},     // 42 elements: bits [4,9)
		{agg.Avg, 3 + 2 + 8 + 2}, // the sum's bits [3,11); the count's vectors all 0b1, no window
	} {
		p := agg.NewPartial(want.k, 42, params(), rng)
		buf, err := AppendPartial(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		n, err := PartialSize(p)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) || n != want.size {
			t.Fatalf("PartialSize(%v) = %d, AppendPartial wrote %d bytes, want %d", want.k, n, len(buf), want.size)
		}
	}
	// Vectors wider than 32 bits cost their window like any other.
	wide := agg.NewPartial(agg.Count, 1, agg.Params{Vectors: 5, Bits: 40}, rng)
	if n, err := PartialSize(wide); err != nil || n >= 3+5*8 {
		t.Fatalf("PartialSize of five 40-bit vectors = %d (%v), want under their 43 at 8 bytes a vector", n, err)
	}
}

// Sizing and encoding a frame allocate nothing, whatever the sketch holds:
// the window is found and packed from the words in place.
func TestSizeAndAppendDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ps := agg.Params{Vectors: 64, Bits: 32}
	for _, k := range []agg.Kind{agg.Count, agg.Avg} {
		p := agg.NewPartial(k, 9, ps, rng)
		for i := 0; i < 200; i++ {
			p.Combine(agg.NewPartial(k, int64(i+1), ps, rng))
		}
		payload := any(partialPayload{p})
		size, err := FrameSize(payload)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, size)
		allocs := testing.AllocsPerRun(100, func() {
			n, _ := FrameSize(payload)
			out, err := AppendFrame(buf, Frame{From: 1, To: 2, Query: 3, Payload: payload})
			if err != nil || len(out) != n || &out[0] != &buf[:1][0] {
				t.Fatalf("%v: wrote %d bytes of %d (%v), or outgrew a buffer of exactly that size", k, len(out), n, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: FrameSize + AppendFrame allocate %v times a frame", k, allocs)
		}
	}
}

func TestSizeOfRejectsUnencodable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	big := agg.NewPartial(agg.Count, 1, agg.Params{Vectors: 300, Bits: 32}, rng)
	if _, err := AppendPartial(nil, big); err == nil {
		t.Fatal("AppendPartial accepted 300 vectors")
	}
	if _, err := PartialSize(big); err == nil {
		t.Fatal("PartialSize reported a size for a partial AppendPartial rejects")
	}
	// The kind comes from the partial, so one that holds none — the zero
	// Partial — has no encoding.
	if _, err := AppendPartial(nil, new(agg.Partial)); err == nil {
		t.Fatal("AppendPartial encoded a partial that holds no aggregate")
	}
	if _, err := PartialSize(new(agg.Partial)); err == nil {
		t.Fatal("PartialSize sized a partial that holds no aggregate")
	}
}
