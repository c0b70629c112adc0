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
// is accepting something no peer of this build sent.
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
		s, n, err := ReadPacked(int(c), int(width), data)
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
