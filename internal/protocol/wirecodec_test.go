package protocol

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"validity/internal/agg"
	"validity/internal/wire"
)

func codecParams() agg.Params { return agg.Params{Vectors: 8, Bits: 32} }

// allMessages returns one representative of every message type that
// crosses the TCP transport — WILDFIRE's two, with and without a partial,
// and the quiescence control frames — exercising both branches of every
// optional-partial field.
func allMessages(tb testing.TB) []any {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	return []any{
		bcast(3, nil),
		bcast(0, agg.NewPartial(agg.Count, 5, codecParams(), rng)),
		wfConverge{},
		wfConverge{S: carry(agg.NewPartial(agg.Avg, 7, codecParams(), rng))},
		wfConverge{S: carry(agg.NewPartial(agg.Sum, 13, codecParams(), rng))},
		bcast(2, agg.NewPartial(agg.Avg, 7, codecParams(), rng)),
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
// held to their version-4 sizes: a one-host sketch of eight vectors costs
// its window header and a byte per bit of window, never its declared 32.
func TestWireCodecSizeExact(t *testing.T) {
	const header = 3     // kind, vectors, bits; each window is lo, width, bits
	want := map[int]int{ // index in allMessages → frame bytes
		1: wire.FrameOverhead + 4 + 1 + header + 2 + 6,         // wfBroadcast, count: bits [0,6)
		3: wire.FrameOverhead + 1 + header + 2 + 5 + 2 + 5,     // wfConverge, avg: sum [1,6), count [0,5)
		4: wire.FrameOverhead + 1 + header + 2 + 6,             // wfConverge, sum of 13: bits [3,9)
		5: wire.FrameOverhead + 4 + 1 + header + 2 + 2 + 2 + 5, // wfBroadcast, avg: sum [2,4), count [0,5)
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
			t.Fatalf("message %d (%T): %d bytes on the wire, want %d\n%x", i, msg, n, w, buf[4+wire.FrameHeaderSize:])
		}
	}
}

// TestWildfireFrameGoldenBytes pins one whole COUNT wfConverge frame at
// version 4, beside wire's TestFrameGoldenBytes for the header: the body
// is the has-partial flag, the partial header, and four vectors as their
// window — every vector starts 0b11, none reaches past bit 6, so bits 2–6
// of each travel, five bits a vector, LSB-first.
func TestWildfireFrameGoldenBytes(t *testing.T) {
	packed := []byte{
		2, 5, // the window: lo, width
		// vector 0 = 0b0010011 → 00100, vector 1 = 0b1000011 → 10000,
		// vector 2 = 0b0000011 → 00000, vector 3 = 0b1111111 → 11111
		0b000_00100, 0b1_00000_10, 0b0000_1111,
	}
	p := new(agg.Partial)
	n, err := wire.DecodePartial(p, append([]byte{3, 4, 32}, packed...)) // count, 4 vectors, 32 bits
	if err != nil || n != 3+len(packed) {
		t.Fatal(n, err)
	}
	buf, err := wire.AppendFrame(nil, wire.Frame{From: 1, To: 2, Query: 5, Chain: 3, Payload: wfConverge{S: carry(p)}})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{
		0, 0, 0, 33, // length prefix, BE: 24-byte header + 9-byte body
		0x7A, 0xDA, 4, tagWfConverge, // magic LE, version, payload tag
		1, 0, 0, 0, 2, 0, 0, 0, // from, to
		5, 0, 0, 0, 0, 0, 0, 0, // query
		3, 0, 0, 0, // chain
		1,        // has partial
		3, 4, 32, // count, 4 vectors, 32 bits
	}, packed...)
	if !bytes.Equal(buf, want) {
		t.Fatalf("frame bytes\n got %v\nwant %v", buf, want)
	}
	got, err := wire.DecodeFrameBody(want[4:])
	if err != nil || !got.Payload.(wfConverge).S.partial().Equal(p) {
		t.Fatalf("the golden frame does not decode to the partial it was built from: %v", err)
	}
	if est := p.Result(); est < 12.2 || est > 12.4 { // lowest zero bits 2, 2, 2, 7: 2^(13/4)/φ
		t.Fatalf("the golden partial estimates %v, want 2^3.25/φ ≈ 12.3", est)
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

// hostileBodies are wfConverge frame bodies no version-4 encoder writes:
// a count partial laid out the version-3 way (four bytes a vector — read
// as a window, its first two bytes leave the other six behind), and a
// window that reaches one bit past its 31-bit vectors, which is what used
// to decode and then poison Equal and Covers wherever it was OR-ed in.
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
		"version-3 layout, vectors 0x1 and 0x3": body(3, 2, 32, 1, 0, 0, 0, 3, 0, 0, 0),
		"window [0,32) of 31-bit vectors":       body(3, 2, 31, 0, 32, 0, 0, 0, 0x80, 1, 0, 0, 0),
	}
}

// TestRetiredTagsAreUnknown pins tags 3–11 as retired: they carried the
// comparison protocols' messages until those protocols left the engine,
// and a frame with one — here with the four-byte body a tree broadcast
// had — fails at decode as an unknown tag, whatever its body.
func TestRetiredTagsAreUnknown(t *testing.T) {
	for tag := byte(3); tag <= 11; tag++ {
		body := retiredTagBody(t, tag)
		_, err := wire.DecodeFrameBody(body)
		if want := fmt.Sprintf("unknown payload tag %d", tag); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("tag %d: decode error %v, want %q", tag, err, want)
		}
	}
}

// retiredTagBody is a frame body with a retired payload tag.
func retiredTagBody(tb testing.TB, tag byte) []byte {
	tb.Helper()
	buf, err := wire.AppendFrame(nil, wire.Frame{From: 1, To: 2, Query: 7, Chain: 1, Payload: wfConverge{}})
	if err != nil {
		tb.Fatal(err)
	}
	body := append(append([]byte(nil), buf[4:4+wire.FrameHeaderSize]...), 1, 0, 0, 0)
	body[3] = tag
	return body
}

// FuzzDecodeFrameBody runs the frame decoder with all protocol codecs
// registered, over seeds of every valid message — whole, one byte short,
// cut in half and cut after the header — plus the hostile bodies and a
// frame of each retired tag. Any panic on hostile input fails the run, and
// so does a frame that decodes but re-encodes to other bytes than it came
// from.
func FuzzDecodeFrameBody(f *testing.F) {
	for _, msg := range allMessages(f) {
		buf, err := wire.AppendFrame(nil, wire.Frame{From: 1, To: 2, Query: 7, Chain: 1, Payload: msg})
		if err != nil {
			f.Fatal(err)
		}
		body := buf[4:]
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(body[:len(body)/2])
		f.Add(body[:wire.FrameHeaderSize])
	}
	f.Add([]byte{})
	for _, body := range hostileBodies(f) {
		f.Add(body)
	}
	for tag := byte(3); tag <= 11; tag++ {
		f.Add(retiredTagBody(f, tag))
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
