package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"validity/internal/agg"
	"validity/internal/graph"
)

// The wire package cannot import internal/protocol (protocol imports
// wire), so the frame tests register their own codec in the reserved test
// tag space — exercising exactly the registration path out-of-tree
// payloads use.
const (
	frameTestTag   = TagReservedBase + 15 // 255: plain strings
	partialTestTag = TagReservedBase + 14 // 254: partialPayload
)

// partialPayload is the smallest message that carries a partial: the body
// is the partial's encoding and nothing else.
type partialPayload struct{ A *agg.Partial }

func init() {
	RegisterTagger(func(payload any) (uint8, bool) {
		switch payload.(type) {
		case string:
			return frameTestTag, true
		case partialPayload:
			return partialTestTag, true
		}
		return 0, false
	})
	RegisterPayload(partialTestTag, PayloadCodec{
		Name: "frame-test-partial",
		Append: func(buf []byte, payload any) ([]byte, error) {
			return AppendPartial(buf, payload.(partialPayload).A)
		},
		Size: func(payload any) (int, error) {
			return PartialSize(payload.(partialPayload).A)
		},
		Decode: func(body []byte) (any, error) {
			p := new(agg.Partial)
			n, err := DecodePartial(p, body)
			if err == nil && n != len(body) {
				err = fmt.Errorf("%d trailing bytes after partial", len(body)-n)
			}
			return partialPayload{p}, err
		},
	})
	RegisterPayload(frameTestTag, PayloadCodec{
		Name: "frame-test-string",
		Append: func(buf []byte, payload any) ([]byte, error) {
			return append(buf, payload.(string)...), nil
		},
		Size:   func(payload any) (int, error) { return len(payload.(string)), nil },
		Decode: func(body []byte) (any, error) { return string(body), nil },
	})
}

// TestFrameGoldenBytes pins the version-4 layout byte for byte: the frame
// format is an interchange contract, and an accidental field reorder must
// fail loudly, not just round-trip differently.
func TestFrameGoldenBytes(t *testing.T) {
	buf, err := AppendFrame(nil, Frame{
		From:    1,
		To:      2,
		Query:   0x0102030405060708,
		Chain:   9,
		Payload: "hi",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 26, // length prefix, BE: 24-byte header + 2-byte payload
		0x7A, 0xDA, // magic, LE
		4,            // version
		frameTestTag, // payload tag
		1, 0, 0, 0,   // from, LE
		2, 0, 0, 0, // to, LE
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // query, LE
		9, 0, 0, 0, // chain, LE
		'h', 'i', // payload body
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("frame bytes\n got %v\nwant %v", buf, want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{From: 0, To: 1, Query: 1, Chain: 1, Payload: "x"},
		{From: math.MaxInt32, To: 0, Query: -4, Chain: -7, Payload: ""},
		{From: 3, To: 5, Query: math.MinInt64, Chain: math.MaxInt32, Payload: "payload"},
	}
	for _, f := range frames {
		buf, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		got, err := DecodeFrameBody(buf[4:])
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		if got != f {
			t.Fatalf("round trip: got %+v, want %+v", got, f)
		}
	}
}

// Frames append cleanly onto a buffer already holding earlier frames —
// the property the transport's batch writer relies on.
func TestFrameAppendsOntoBatch(t *testing.T) {
	buf, err := AppendFrame(nil, Frame{From: 1, To: 2, Query: 1, Payload: "first"})
	if err != nil {
		t.Fatal(err)
	}
	split := len(buf)
	buf, err = AppendFrame(buf, Frame{From: 2, To: 1, Query: 2, Payload: "second"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeFrameBody(buf[4:split])
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeFrameBody(buf[split+4:])
	if err != nil {
		t.Fatal(err)
	}
	if a.Payload != "first" || b.Payload != "second" {
		t.Fatalf("batch decode: %v, %v", a.Payload, b.Payload)
	}
}

func TestFrameSizeMatchesAppend(t *testing.T) {
	f := func(from, to uint16, query int64, chain int32, payload string) bool {
		fr := Frame{
			From: graph.HostID(from), To: graph.HostID(to),
			Query: query, Chain: int(chain), Payload: payload,
		}
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			return false
		}
		n, err := FrameSize(payload)
		return err == nil && n == len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendFrameErrors(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{Payload: 3.14}); err == nil {
		t.Fatal("unregistered payload type accepted")
	}
	if _, err := AppendFrame(nil, Frame{From: -1, Payload: "x"}); err == nil {
		t.Fatal("negative host id accepted")
	}
	if _, err := AppendFrame(nil, Frame{Chain: math.MaxInt32 + 1, Payload: "x"}); err == nil {
		t.Fatal("chain beyond int32 accepted")
	}
	if _, err := FrameSize(3.14); err == nil {
		t.Fatal("FrameSize sized an unregistered payload")
	}
}

func TestDecodeFrameBodyErrors(t *testing.T) {
	good, err := AppendFrame(nil, Frame{From: 1, To: 2, Query: 3, Chain: 4, Payload: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	body := good[4:]
	corrupt := func(off int, b byte) []byte {
		c := append([]byte(nil), body...)
		c[off] = b
		return c
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       body[:FrameHeaderSize-1],
		"bad magic":   corrupt(0, 0),
		"bad version": corrupt(2, 99),
		"unknown tag": corrupt(3, 200),
		"zero tag":    corrupt(3, 0),
		"oversize from": func() []byte {
			c := append([]byte(nil), body...)
			c[7] = 0xFF // from's top byte: > MaxInt32
			return c
		}(),
	}
	for name, b := range cases {
		if _, err := DecodeFrameBody(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Property: FrameSize — what the node charges per sent message — agrees
// with the encoder's actual output for generated partials of every kind,
// AVG's two sketches included, at 32-bit and at 64-bit lanes.
func TestQuickSizeMatchesEncode(t *testing.T) {
	kinds := []agg.Kind{agg.Min, agg.Max, agg.Count, agg.Sum, agg.Avg}
	f := func(seed int64, pick, vectors, bits uint8) bool {
		k := kinds[int(pick)%len(kinds)]
		ps := agg.Params{Vectors: int(vectors)%255 + 1, Bits: int(bits)%64 + 1}
		payload := partialPayload{agg.NewPartial(k, int64(pick)+1, ps, rand.New(rand.NewSource(seed)))}
		buf, err := AppendFrame(nil, Frame{From: 1, To: 2, Query: seed, Payload: payload})
		if err != nil {
			return false
		}
		n, err := FrameSize(payload)
		return err == nil && n == len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
