package protocol

import (
	"bytes"
	"math/rand"
	"testing"

	"validity/internal/agg"
	"validity/internal/fm"
	"validity/internal/wire"
)

func codecParams() agg.Params { return agg.Params{Vectors: 8, Bits: 32} }

// allMessages returns one representative of every protocol message type
// that crosses the TCP transport, exercising both branches of every
// optional-partial field.
func allMessages(tb testing.TB) []any {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	return []any{
		wfBroadcast{Hop: 3},
		wfBroadcast{Hop: 0, A: agg.NewPartial(agg.Count, 5, codecParams(), rng)},
		wfConverge{},
		wfConverge{A: agg.NewPartial(agg.Avg, 7, codecParams(), rng)},
		stBroadcast{Level: 4},
		stReport{},
		stReport{A: &ExactPartial{Count: 2, Sum: -9, Min: -11, Max: 3}},
		dagBroadcast{Level: 1},
		dagReport{},
		dagReport{A: agg.NewPartial(agg.Sum, 13, codecParams(), rng)},
		arBroadcast{},
		arReport{Origin: 17, Value: -42},
		rrBroadcast{},
		rrReport{},
		gsPair{Sum: 3.25, Weight: 0.5},
		wfBroadcast{Hop: 2, A: agg.NewPartial(agg.Avg, 7, codecParams(), rng)},
		// Not protocol messages: the quiescence control frames — a
		// worker's announce, the issuer's Done — ride the same framing, so
		// they belong in the same round-trip, hostile-body, and fuzz
		// coverage.
		wire.Quiesce{Epoch: 2, Activity: 5, Quiet: true},
		wire.Quiesce{Done: true},
	}
}

// TestWireCodecRoundTrip pushes every protocol message through the full
// transport codec — AppendFrame then DecodeFrameBody — and checks the
// decoded message re-encodes to identical bytes. Byte-stable re-encoding
// is a stronger property than field equality for messages carrying
// interface-typed partials.
func TestWireCodecRoundTrip(t *testing.T) {
	for _, msg := range allMessages(t) {
		fr := wire.Frame{From: 1, To: 2, Query: 99, Chain: 1, Payload: msg}
		buf, err := wire.AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		got, err := wire.DecodeFrameBody(buf[4:])
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if got.From != fr.From || got.To != fr.To || got.Query != fr.Query || got.Chain != fr.Chain {
			t.Fatalf("%T: header round trip: got %+v", msg, got)
		}
		buf2, err := wire.AppendFrame(nil, wire.Frame{
			From: got.From, To: got.To, Query: got.Query, Chain: got.Chain, Payload: got.Payload,
		})
		if err != nil {
			t.Fatalf("%T: re-encode: %v", msg, err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("%T: re-encode differs\n first %v\nsecond %v", msg, buf, buf2)
		}
	}
}

// TestWireCodecSizeExact checks FrameSize against the encoder for every
// message type: the node's §6.3 bytes-on-wire accounting uses FrameSize
// and must charge exactly what TCP writes. The sketch carriers are also
// held to their version-3 sizes: eight 32-bit vectors cost 32 bytes.
func TestWireCodecSizeExact(t *testing.T) {
	const sketch = 3 + 8*4 // kind, vectors, bits, then one 4-byte lane per vector
	want := map[int]int{   // index in allMessages → frame bytes
		1:  wire.FrameOverhead + 4 + 1 + sketch,       // wfBroadcast, count
		3:  wire.FrameOverhead + 1 + sketch + 8*4,     // wfConverge, avg: two sketches
		9:  wire.FrameOverhead + 1 + sketch,           // dagReport, sum
		15: wire.FrameOverhead + 4 + 1 + sketch + 8*4, // wfBroadcast, avg
	}
	for i, msg := range allMessages(t) {
		buf, err := wire.AppendFrame(nil, wire.Frame{From: 1, To: 2, Query: 1, Payload: msg})
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		n, err := wire.FrameSize(msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if n != len(buf) {
			t.Fatalf("%T: FrameSize %d, encoded %d", msg, n, len(buf))
		}
		if w, ok := want[i]; ok && n != w {
			t.Fatalf("message %d (%T): %d bytes on the wire, want %d", i, msg, n, w)
		}
	}
}

// TestWildfireFrameGoldenBytes pins one whole COUNT wfConverge frame at
// version 3, beside wire's TestFrameGoldenBytes for the header: the body
// is the has-partial flag, the partial header, and four vectors as four
// little-endian 32-bit lanes — the image of the sketch's two words.
func TestWildfireFrameGoldenBytes(t *testing.T) {
	sk, err := fm.ReadWords(4, 32, []byte{
		0x07, 0, 0, 0, 0x01, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := agg.PartialFromSketches(agg.Count, sk)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := wire.AppendFrame(nil, wire.Frame{From: 1, To: 2, Query: 5, Chain: 3, Payload: wfConverge{A: p}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 44, // length prefix, BE: 24-byte header + 20-byte body
		0x7A, 0xDA, 3, tagWfConverge, // magic LE, version, payload tag
		1, 0, 0, 0, 2, 0, 0, 0, // from, to
		5, 0, 0, 0, 0, 0, 0, 0, // query
		3, 0, 0, 0, // chain
		1,        // has partial
		3, 4, 32, // count, 4 vectors, 32 bits
		0x07, 0, 0, 0, // vector 0: bits 0–2
		0x01, 0, 0, 0x80, // vector 1: bits 0 and 31
		0xFF, 0xFF, 0xFF, 0xFF, // vector 2: saturated
		0, 0, 0, 0, // vector 3: empty
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("frame bytes\n got %v\nwant %v", buf, want)
	}
	got, err := wire.DecodeFrameBody(want[4:])
	if err != nil || !got.Payload.(wfConverge).A.Equal(p) {
		t.Fatalf("the golden frame does not decode to the partial it was built from: %v", err)
	}
}

// TestWireCodecRejectsMalformedBodies feeds each codec a body with one
// trailing byte: every decoder must enforce exact body length, since
// frames are packed back to back inside coalesced writes.
func TestWireCodecRejectsMalformedBodies(t *testing.T) {
	for _, msg := range allMessages(t) {
		buf, err := wire.AppendFrame(nil, wire.Frame{From: 1, To: 2, Query: 1, Payload: msg})
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		grown := append(append([]byte(nil), buf[4:]...), 0xEE)
		if _, err := wire.DecodeFrameBody(grown); err == nil {
			t.Errorf("%T: accepted a body with a trailing byte", msg)
		}
	}
	for name, body := range hostileBodies(t) {
		if _, err := wire.DecodeFrameBody(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// hostileBodies are wfConverge frame bodies no version-3 encoder writes:
// a count partial laid out the version-2 way (8 bytes per 32-bit vector,
// the high half of one of them set — what used to decode and then poison
// Equal and Covers wherever it was OR-ed in), and a 31-bit vector with
// bit 31 set.
func hostileBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	buf, err := wire.AppendFrame(nil, wire.Frame{From: 1, To: 2, Query: 7, Chain: 1, Payload: wfConverge{}})
	if err != nil {
		tb.Fatal(err)
	}
	header := buf[4 : 4+wire.FrameHeaderSize]
	body := func(partial ...byte) []byte {
		return append(append(append([]byte(nil), header...), 1), partial...)
	}
	return map[string][]byte{
		"version-2 layout, bits 32–63 of a 32-bit vector set": body(3, 2, 32,
			1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 0, 0, 0, 0),
		"bit 31 of a 31-bit vector": body(3, 2, 31, 1, 0, 0, 0, 0, 0, 0, 0x80),
	}
}

// FuzzDecodeFrameBody runs the frame decoder with all protocol codecs
// registered, over seeds of every valid message plus truncations and the
// hostile bodies. Any panic on hostile input fails the run, and so does a
// frame that decodes but re-encodes to other bytes than it came from.
func FuzzDecodeFrameBody(f *testing.F) {
	for _, msg := range allMessages(f) {
		buf, err := wire.AppendFrame(nil, wire.Frame{From: 1, To: 2, Query: 7, Chain: 1, Payload: msg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[4:])
		f.Add(buf[4 : 4+len(buf[4:])/2])
	}
	f.Add([]byte{})
	for _, body := range hostileBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := wire.DecodeFrameBody(data)
		if err != nil {
			return
		}
		// A frame the decoder accepts is one the encoder writes: the codec
		// may not produce messages it cannot itself serialize, nor accept
		// a second spelling of one it can.
		buf, err := wire.AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(buf[4:], data) {
			t.Fatalf("decoded frame re-encodes differently\n  in %x\n out %x", data, buf[4:])
		}
	})
}
