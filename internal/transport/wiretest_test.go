package transport

import (
	"encoding/binary"
	"fmt"

	"validity/internal/agg"
	"validity/internal/wire"
)

// The TCP transport ships version-4 wire frames, so every payload type a
// test puts on the wire needs a codec in the reserved test tag space
// (≥ wire.TagReservedBase) — the live-path twin of what internal/protocol
// registers for the real protocol messages.
const (
	testTagString uint8 = wire.TagReservedBase     // plain string payloads
	testTagSketch uint8 = wire.TagReservedBase + 1 // sketchPayload
)

func init() {
	wire.RegisterTagger(func(payload any) (uint8, bool) {
		switch payload.(type) {
		case string:
			return testTagString, true
		case sketchPayload:
			return testTagSketch, true
		}
		return 0, false
	})
	wire.RegisterPayload(testTagString, wire.PayloadCodec{
		Name: "test-string",
		Append: func(buf []byte, payload any) ([]byte, error) {
			return append(buf, payload.(string)...), nil
		},
		Size: func(payload any) (int, error) { return len(payload.(string)), nil },
		Decode: func(body []byte) (any, error) {
			return string(body), nil
		},
	})
	wire.RegisterPayload(testTagSketch, wire.PayloadCodec{
		Name: "test-sketch",
		Append: func(buf []byte, payload any) ([]byte, error) {
			m := payload.(sketchPayload)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.Round)))
			if m.A == nil {
				return append(buf, 0), nil
			}
			k, ok := agg.KindOf(m.A)
			if !ok {
				return nil, fmt.Errorf("unknown partial %T", m.A)
			}
			buf = append(buf, 1)
			return wire.AppendPartial(buf, k, m.A)
		},
		Size: func(payload any) (int, error) {
			m := payload.(sketchPayload)
			if m.A == nil {
				return 9, nil
			}
			k, ok := agg.KindOf(m.A)
			if !ok {
				return 0, fmt.Errorf("unknown partial %T", m.A)
			}
			n, err := wire.PartialSize(k, m.A)
			if err != nil {
				return 0, err
			}
			return 9 + n, nil
		},
		Decode: func(body []byte) (any, error) {
			if len(body) < 9 {
				return nil, fmt.Errorf("truncated sketchPayload")
			}
			m := sketchPayload{Round: int(int64(binary.LittleEndian.Uint64(body[0:8])))}
			switch body[8] {
			case 0:
				if len(body) != 9 {
					return nil, fmt.Errorf("trailing bytes after empty sketchPayload")
				}
			case 1:
				p, _, n, err := wire.DecodePartial(nil, body[9:])
				if err != nil {
					return nil, err
				}
				if 9+n != len(body) {
					return nil, fmt.Errorf("trailing bytes after sketchPayload partial")
				}
				m.A = p
			default:
				return nil, fmt.Errorf("bad sketchPayload flag %d", body[8])
			}
			return m, nil
		},
	})
}
