package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"validity/internal/agg"
)

// frameSeeds is the seed corpus for the frame decoder: a valid frame body
// for every payload the package's own codecs carry — both test codecs, the
// quiescence announce and Done, a partial of every kind, then sketches as
// a fleet ships them (64 vectors, a few hundred hosts combined) and at
// more than 32 bits — then every truncation of each (the hostile input a
// broken peer is most likely to produce), a version-2 and a version-3
// frame, and the non-canonical sketches.
func frameSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	payloads := []any{"hello", Quiesce{Epoch: 2, Activity: 5, Quiet: true}, Quiesce{Done: true}}
	for _, k := range []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg} {
		payloads = append(payloads, partialPayload{agg.NewPartial(k, 42, params(), rng)})
	}
	for _, ps := range []agg.Params{{Vectors: 64, Bits: 32}, {Vectors: 5, Bits: 40}} {
		for _, k := range []agg.Kind{agg.Count, agg.Avg} {
			p := agg.NewPartial(k, 42, ps, rng)
			for i := 0; i < 300; i++ {
				p.Combine(agg.NewPartial(k, int64(i), ps, rng))
			}
			payloads = append(payloads, partialPayload{p})
		}
	}
	var seeds [][]byte
	for _, payload := range payloads {
		buf, err := AppendFrame(nil, Frame{From: 1, To: 2, Query: 7, Chain: 1, Payload: payload})
		if err != nil {
			tb.Fatal(err)
		}
		body := buf[4:]
		for i := 0; i <= len(body); i++ {
			seeds = append(seeds, body[:i])
		}
	}
	last := seeds[len(seeds)-1]
	for _, old := range []byte{2, 3} {
		stale := append([]byte(nil), last...)
		stale[2] = old
		seeds = append(seeds, stale)
	}
	for _, hostile := range hostileSketches() {
		seeds = append(seeds, append(append([]byte(nil), last[:FrameHeaderSize]...), hostile...))
	}
	return seeds
}

// FuzzDecode feeds arbitrary bytes to the frame decoder. Hostile input
// must come back as an error — never a panic, and never an allocation
// sized from unvalidated lengths — and anything that decodes must
// re-encode to the bytes it came from: the format has one encoding per
// frame, so a decoder that accepts a second one is accepting something no
// peer of this build sent.
func FuzzDecode(f *testing.F) {
	for _, s := range frameSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrameBody(data)
		if err != nil {
			return
		}
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(buf[4:], data) {
			t.Fatalf("decoded frame re-encodes differently\n  in %x\n out %x", data, buf[4:])
		}
	})
}

// FuzzDecodePartial covers the partial decoder on its own, where the
// bytes arrive without a frame around them and may run past the partial.
// Decoding into a recycled partial — every kind, sketches with more
// storage and with less than the input's, every bit set — must give what a
// fresh decode gives and fail where it fails.
func FuzzDecodePartial(f *testing.F) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range []agg.Kind{agg.Min, agg.Count, agg.Avg} {
		buf, err := AppendPartial(nil, agg.NewPartial(k, 9, params(), rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	f.Add([]byte{})
	for _, hostile := range hostileSketches() {
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, k, n, err := decode(data)
		for _, dst := range dirtyPartials(t) {
			was, _ := dst.Kind()
			dn, derr := DecodePartial(dst, data)
			if (err == nil) != (derr == nil) || err != nil && err.Error() != derr.Error() {
				t.Fatalf("into a recycled %v partial: err = %v, into a fresh one %v", was, derr, err)
			}
			if dk, _ := dst.Kind(); err == nil && (dk != k || dn != n || !dst.Equal(p)) {
				t.Fatalf("into a recycled %v partial: a %v partial of %d bytes, into a fresh one a %v of %d", was, dk, dn, k, n)
			}
		}
		if err != nil {
			return
		}
		buf, err := AppendPartial(nil, p)
		if err != nil {
			t.Fatalf("decoded partial does not re-encode: %v", err)
		}
		if !bytes.Equal(buf, data[:n]) {
			t.Fatalf("decoded partial re-encodes differently\n  in %x\n out %x", data[:n], buf)
		}
	})
}

// dirtyPartials are recycled destinations for the partial decoder, one of
// every kind with every bit set: scalars of all ones, sketches of 67
// 64-bit vectors (more storage than any input here) and of one 1-bit
// vector (less) — each a window of width 0 above the vectors' every bit.
// Each first held the widest avg, so the sketches its own kind ignores
// are full of stale bits too.
func dirtyPartials(tb testing.TB) []*agg.Partial {
	tb.Helper()
	var out []*agg.Partial
	for _, enc := range [][]byte{
		{tagMin, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{tagMax, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{tagCount, 67, 64, 64, 0}, {tagCount, 1, 1, 1, 0},
		{tagSum, 67, 64, 64, 0}, {tagSum, 1, 1, 1, 0},
		{tagAvg, 67, 64, 64, 0, 64, 0}, {tagAvg, 1, 1, 1, 0, 1, 0},
	} {
		p, _, _, err := decode([]byte{tagAvg, 67, 64, 64, 0, 64, 0})
		if err == nil {
			_, err = DecodePartial(p, enc)
		}
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}
