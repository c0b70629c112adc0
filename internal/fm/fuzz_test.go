package fm

import (
	"bytes"
	"testing"
)

// FuzzReadPacked feeds arbitrary bytes, under arbitrary dimensions, to the
// sketch reader. Hostile input must come back as an error, never a panic;
// whatever decodes must hold no bit at or above its declared width — OR-ed
// into a host's state it would stay there — and must pack to the bytes it
// came from: a sketch has one wire form, so a reader that accepts a second
// is accepting something no peer of this build sent. A recycled
// destination — more storage, less, or the same dimensions, every bit of
// it set — must decode to what a fresh one does and fail where it fails.
func FuzzReadPacked(f *testing.F) {
	for _, s := range packedCases() {
		wire := s.AppendPacked(nil)
		f.Add(uint8(s.Vectors()), uint8(s.Bits()), wire)
		f.Add(uint8(s.Vectors()), uint8(s.Bits()), wire[:len(wire)/2])
		f.Add(uint8(s.Vectors()), uint8(s.Bits()-1), wire)
	}
	f.Add(uint8(2), uint8(32), []byte{0, 4, 0x32})        // top bit of the window clear everywhere
	f.Add(uint8(2), uint8(32), []byte{0, 4, 0x9B})        // bottom bit set everywhere
	f.Add(uint8(3), uint8(32), []byte{0, 2, 0x46})        // padding bit set
	f.Add(uint8(1), uint8(31), []byte{0, 32, 0, 0, 0, 1}) // window past the width
	f.Fuzz(func(t *testing.T, c, width uint8, data []byte) {
		var s Sketch
		n, err := ReadPacked(&s, int(c), int(width), data)
		for _, dims := range [][2]int{{int(c) + 3, 64}, {1, 1}, {int(c), int(width)}} {
			if dims[0] < 1 || dims[1] < 1 || dims[1] > 64 {
				continue
			}
			d := saturated(dims[0], dims[1])
			dn, derr := ReadPacked(&d, int(c), int(width), data)
			if (err == nil) != (derr == nil) || err != nil && err.Error() != derr.Error() {
				t.Fatalf("into a recycled %d×%d sketch: err = %v, into a fresh one %v", dims[0], dims[1], derr, err)
			}
			if err == nil && (dn != n || !d.Equal(&s)) {
				t.Fatalf("into a recycled %d×%d sketch: %v (%d bytes), into a fresh one %v (%d bytes)", dims[0], dims[1], d.words, dn, s.words, n)
			}
		}
		if err != nil {
			return
		}
		for i := 0; i < int(c); i++ {
			if v := s.lane(i); v>>width != 0 {
				t.Fatalf("vector %d = %#x has bits at or above its width %d", i, v, width)
			}
		}
		if s.bits <= 32 && s.c%2 == 1 && s.words[len(s.words)-1]>>32 != 0 {
			t.Fatal("padding lane of an odd sketch is not zero")
		}
		if out := s.AppendPacked(nil); !bytes.Equal(out, data[:n]) {
			t.Fatalf("decoded sketch packs differently\n  in %x\n out %x", data[:n], out)
		}
	})
}

// saturated is a c×bits sketch with every bit of its storage set, padding
// included: the dirtiest destination a decoder can be handed.
func saturated(c, bits int) Sketch {
	s := MakeSketch(c, bits)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	return s
}
