package wire

import (
	"bytes"
	"testing"
)

// TestQuiesceRoundTrip pins the control-frame codec: a quiescence
// announce and the issuer's Done survive AppendFrame/DecodeFrameBody
// bit-for-bit, including the header routing fields the tracker keys on
// (From = sending process's host, Query = the query the claim is about),
// and the decoded frame re-encodes to the bytes it came from.
func TestQuiesceRoundTrip(t *testing.T) {
	cases := []Quiesce{
		{Epoch: 0, Activity: 0, Quiet: false},
		{Epoch: 1, Activity: 42, Quiet: true},
		{Epoch: 0xFFFFFFFF, Activity: -7, Quiet: true},
		{Done: true},
		{Epoch: 3, Activity: 9, Done: true},
	}
	for _, q := range cases {
		in := Frame{From: 21, To: 3, Query: 9, Chain: 0, Payload: q}
		buf, err := AppendFrame(nil, in)
		if err != nil {
			t.Fatalf("encode %+v: %v", q, err)
		}
		if got, want := len(buf), FrameOverhead+quiesceBodySize; got != want {
			t.Fatalf("quiesce frame is %d bytes, want %d", got, want)
		}
		out, err := DecodeFrameBody(buf[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", q, err)
		}
		if out.From != in.From || out.To != in.To || out.Query != in.Query {
			t.Fatalf("header mangled: got %+v, want %+v", out, in)
		}
		if got := out.Payload.(Quiesce); got != q {
			t.Fatalf("payload round trip: got %+v, want %+v", got, q)
		}
		again, err := AppendFrame(nil, out)
		if err != nil || !bytes.Equal(again, buf) {
			t.Fatalf("%+v re-encodes to %x (err %v), came from %x", q, again, err, buf)
		}
	}
	// The flag byte has one slot: a value claiming both travels as a Done.
	buf, err := AppendFrame(nil, Frame{Payload: Quiesce{Quiet: true, Done: true}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeFrameBody(buf[4:])
	if err != nil || out.Payload.(Quiesce) != (Quiesce{Done: true}) {
		t.Fatalf("quiet+done decoded as %+v (err %v), want a plain Done", out.Payload, err)
	}
}

// TestQuiesceHostileBodies pins the decode hardening: wrong lengths —
// of an announce and of a Done alike — and flag bytes past the three
// defined values error instead of yielding a half-decoded claim (the fuzz
// corpus in internal/protocol exercises the same property under
// mutation).
func TestQuiesceHostileBodies(t *testing.T) {
	good, err := AppendFrame(nil, Frame{From: 1, To: 0, Query: 5, Payload: Quiesce{Epoch: 3, Activity: 10, Quiet: true}})
	if err != nil {
		t.Fatal(err)
	}
	body := good[4:]

	truncated := body[:len(body)-1]
	if _, err := DecodeFrameBody(truncated); err == nil {
		t.Fatal("truncated quiesce body decoded without error")
	}
	padded := append(append([]byte(nil), body...), 0)
	if _, err := DecodeFrameBody(padded); err == nil {
		t.Fatal("padded quiesce body decoded without error")
	}
	for _, flag := range []byte{3, 0xFF} {
		badFlag := append([]byte(nil), body...)
		badFlag[len(badFlag)-1] = flag
		if _, err := DecodeFrameBody(badFlag); err == nil {
			t.Fatalf("flag byte %d decoded without error", flag)
		}
	}

	done, err := AppendFrame(nil, Frame{From: 0, To: 21, Query: 5, Payload: Quiesce{Done: true}})
	if err != nil {
		t.Fatal(err)
	}
	for n := FrameHeaderSize; n < len(done)-4; n++ {
		if _, err := DecodeFrameBody(done[4 : 4+n]); err == nil {
			t.Fatalf("Done truncated to %d of %d body bytes decoded without error", n-FrameHeaderSize, quiesceBodySize)
		}
	}
}
