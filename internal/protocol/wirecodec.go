package protocol

import (
	"encoding/binary"
	"fmt"
	"math"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/wire"
)

// The node runtime (internal/node) carries protocol messages over
// pluggable transports; the TCP transport ships them as version-4 wire
// frames, which need every concrete message type bound to an explicit
// payload tag and codec here. The tags are pinned — they are the wire
// format, and reordering this block would break cross-version fleets.
// Tags 1–239 belong to this package; wire.TagReservedBase and above are
// for out-of-tree payloads (test harnesses).
//
// Body layouts (little-endian):
//
//	wfBroadcast:  hop u32  | has u8 | partial?
//	wfConverge:   has u8   | partial?
//	stBroadcast:  level u32
//	stReport:     has u8   | count i64 | sum i64 | min i64 | max i64
//	dagBroadcast: level u32
//	dagReport:    has u8   | partial?
//	arBroadcast:  (empty)
//	arReport:     origin u32 | value i64
//	rrBroadcast:  (empty)
//	rrReport:     (empty)
//	gsPair:       sum f64 | weight f64
//
// "partial?" is internal/wire's partial encoding, present iff has = 1.
// Every Decode copies what it keeps out of the body (wire.PayloadCodec);
// the WILDFIRE two copy it into a snapshot from the pool (decodeSnap).
const (
	tagWfBroadcast  uint8 = 1
	tagWfConverge   uint8 = 2
	tagStBroadcast  uint8 = 3
	tagStReport     uint8 = 4
	tagDagBroadcast uint8 = 5
	tagDagReport    uint8 = 6
	tagArBroadcast  uint8 = 7
	tagArReport     uint8 = 8
	tagRrBroadcast  uint8 = 9
	tagRrReport     uint8 = 10
	tagGsPair       uint8 = 11
)

func init() {
	wire.RegisterTagger(func(payload any) (uint8, bool) {
		switch payload.(type) {
		case wfBroadcast:
			return tagWfBroadcast, true
		case wfConverge:
			return tagWfConverge, true
		case stBroadcast:
			return tagStBroadcast, true
		case stReport:
			return tagStReport, true
		case dagBroadcast:
			return tagDagBroadcast, true
		case dagReport:
			return tagDagReport, true
		case arBroadcast:
			return tagArBroadcast, true
		case arReport:
			return tagArReport, true
		case rrBroadcast:
			return tagRrBroadcast, true
		case rrReport:
			return tagRrReport, true
		case gsPair:
			return tagGsPair, true
		}
		return 0, false
	})

	wire.RegisterPayload(tagWfBroadcast, wire.PayloadCodec{
		Name: "wfBroadcast",
		Append: func(buf []byte, payload any) ([]byte, error) {
			s := payload.(wfBroadcast).S
			buf, err := appendU32(buf, s.hop, "hop")
			if err != nil {
				return nil, err
			}
			return appendOptPartial(buf, s.partial())
		},
		Size: func(payload any) (int, error) {
			return sizeOptPartial(4, payload.(wfBroadcast).S.partial())
		},
		Decode: func(body []byte) (any, error) {
			if len(body) < 4 {
				return nil, fmt.Errorf("truncated wfBroadcast")
			}
			s, err := decodeSnap(body[4:])
			if err != nil {
				return nil, err
			}
			s.hop = int(binary.LittleEndian.Uint32(body[0:4]))
			return wfBroadcast{S: s}, nil
		},
	})

	wire.RegisterPayload(tagWfConverge, wire.PayloadCodec{
		Name: "wfConverge",
		Append: func(buf []byte, payload any) ([]byte, error) {
			return appendOptPartial(buf, payload.(wfConverge).S.partial())
		},
		Size: func(payload any) (int, error) {
			return sizeOptPartial(0, payload.(wfConverge).S.partial())
		},
		Decode: func(body []byte) (any, error) {
			s, err := decodeSnap(body)
			if err != nil {
				return nil, err
			}
			return wfConverge{S: s}, nil
		},
	})

	wire.RegisterPayload(tagStBroadcast, wire.PayloadCodec{
		Name: "stBroadcast",
		Append: func(buf []byte, payload any) ([]byte, error) {
			return appendU32(buf, payload.(stBroadcast).Level, "level")
		},
		Size: func(any) (int, error) { return 4, nil },
		Decode: func(body []byte) (any, error) {
			if len(body) != 4 {
				return nil, fmt.Errorf("stBroadcast body is %d bytes, want 4", len(body))
			}
			return stBroadcast{Level: int(binary.LittleEndian.Uint32(body))}, nil
		},
	})

	wire.RegisterPayload(tagStReport, wire.PayloadCodec{
		Name: "stReport",
		Append: func(buf []byte, payload any) ([]byte, error) {
			m := payload.(stReport)
			if m.A == nil {
				return append(buf, 0), nil
			}
			buf = append(buf, 1)
			for _, v := range [...]int64{m.A.Count, m.A.Sum, m.A.Min, m.A.Max} {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			return buf, nil
		},
		Size: func(payload any) (int, error) {
			if payload.(stReport).A == nil {
				return 1, nil
			}
			return 1 + 4*8, nil
		},
		Decode: func(body []byte) (any, error) {
			if len(body) == 1 && body[0] == 0 {
				return stReport{}, nil
			}
			if len(body) != 1+4*8 || body[0] != 1 {
				return nil, fmt.Errorf("malformed stReport body (%d bytes)", len(body))
			}
			return stReport{A: &ExactPartial{
				Count: int64(binary.LittleEndian.Uint64(body[1:9])),
				Sum:   int64(binary.LittleEndian.Uint64(body[9:17])),
				Min:   int64(binary.LittleEndian.Uint64(body[17:25])),
				Max:   int64(binary.LittleEndian.Uint64(body[25:33])),
			}}, nil
		},
	})

	wire.RegisterPayload(tagDagBroadcast, wire.PayloadCodec{
		Name: "dagBroadcast",
		Append: func(buf []byte, payload any) ([]byte, error) {
			return appendU32(buf, payload.(dagBroadcast).Level, "level")
		},
		Size: func(any) (int, error) { return 4, nil },
		Decode: func(body []byte) (any, error) {
			if len(body) != 4 {
				return nil, fmt.Errorf("dagBroadcast body is %d bytes, want 4", len(body))
			}
			return dagBroadcast{Level: int(binary.LittleEndian.Uint32(body))}, nil
		},
	})

	wire.RegisterPayload(tagDagReport, wire.PayloadCodec{
		Name: "dagReport",
		Append: func(buf []byte, payload any) ([]byte, error) {
			return appendOptPartial(buf, payload.(dagReport).A)
		},
		Size: func(payload any) (int, error) {
			return sizeOptPartial(0, payload.(dagReport).A)
		},
		Decode: func(body []byte) (any, error) {
			p, err := decodeOptPartial(nil, body)
			if err != nil {
				return nil, err
			}
			return dagReport{A: p}, nil
		},
	})

	registerEmpty(tagArBroadcast, "arBroadcast", arBroadcast{})
	wire.RegisterPayload(tagArReport, wire.PayloadCodec{
		Name: "arReport",
		Append: func(buf []byte, payload any) ([]byte, error) {
			m := payload.(arReport)
			buf, err := appendU32(buf, int(m.Origin), "origin")
			if err != nil {
				return nil, err
			}
			return binary.LittleEndian.AppendUint64(buf, uint64(m.Value)), nil
		},
		Size: func(any) (int, error) { return 4 + 8, nil },
		Decode: func(body []byte) (any, error) {
			if len(body) != 12 {
				return nil, fmt.Errorf("arReport body is %d bytes, want 12", len(body))
			}
			origin := binary.LittleEndian.Uint32(body[0:4])
			if origin > math.MaxInt32 {
				return nil, fmt.Errorf("arReport origin %d outside int32", origin)
			}
			return arReport{
				Origin: graph.HostID(origin),
				Value:  int64(binary.LittleEndian.Uint64(body[4:12])),
			}, nil
		},
	})
	registerEmpty(tagRrBroadcast, "rrBroadcast", rrBroadcast{})
	registerEmpty(tagRrReport, "rrReport", rrReport{})

	wire.RegisterPayload(tagGsPair, wire.PayloadCodec{
		Name: "gsPair",
		Append: func(buf []byte, payload any) ([]byte, error) {
			m := payload.(gsPair)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Sum))
			return binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Weight)), nil
		},
		Size: func(any) (int, error) { return 16, nil },
		Decode: func(body []byte) (any, error) {
			if len(body) != 16 {
				return nil, fmt.Errorf("gsPair body is %d bytes, want 16", len(body))
			}
			return gsPair{
				Sum:    math.Float64frombits(binary.LittleEndian.Uint64(body[0:8])),
				Weight: math.Float64frombits(binary.LittleEndian.Uint64(body[8:16])),
			}, nil
		},
	})
}

// registerEmpty binds a field-less marker message whose entire information
// content is its tag.
func registerEmpty[T any](tag uint8, name string, zero T) {
	wire.RegisterPayload(tag, wire.PayloadCodec{
		Name:   name,
		Append: func(buf []byte, _ any) ([]byte, error) { return buf, nil },
		Size:   func(any) (int, error) { return 0, nil },
		Decode: func(body []byte) (any, error) {
			if len(body) != 0 {
				return nil, fmt.Errorf("%s body is %d bytes, want 0", name, len(body))
			}
			return zero, nil
		},
	})
}

// appendU32 encodes a non-negative int that must fit 32 bits (hop counts,
// tree levels, host ids).
func appendU32(buf []byte, v int, field string) ([]byte, error) {
	if v < 0 || v > math.MaxUint32 {
		return nil, fmt.Errorf("%s %d outside u32", field, v)
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(v)), nil
}

// appendOptPartial encodes "has u8 | partial?": the optional piggybacked
// partial aggregate several message bodies end with.
func appendOptPartial(buf []byte, p agg.Partial) ([]byte, error) {
	if p == nil {
		return append(buf, 0), nil
	}
	k, ok := agg.KindOf(p)
	if !ok {
		return nil, fmt.Errorf("partial %T outside the wire format", p)
	}
	buf = append(buf, 1)
	return wire.AppendPartial(buf, k, p)
}

// sizeOptPartial is appendOptPartial's length plus a fixed prefix.
func sizeOptPartial(prefix int, p agg.Partial) (int, error) {
	if p == nil {
		return prefix + 1, nil
	}
	k, ok := agg.KindOf(p)
	if !ok {
		return 0, fmt.Errorf("partial %T outside the wire format", p)
	}
	n, err := wire.PartialSize(k, p)
	if err != nil {
		return 0, err
	}
	return prefix + 1 + n, nil
}

// decodeSnap parses "has u8 | partial?" into a snapshot from the pool that
// holds the frame's one ref, for the receiver to release; its partial is
// nil when has = 0, which no WILDFIRE host sends and Receive drops.
func decodeSnap(body []byte) (*wfSnap, error) {
	s := snapPool.Get().(*wfSnap)
	p, err := decodeOptPartial(s.a, body)
	if err != nil {
		snapPool.Put(s)
		return nil, err
	}
	s.a = p
	s.refs.Store(1)
	return s, nil
}

// decodeOptPartial parses "has u8 | partial?" into dst (wire.DecodePartial),
// enforcing that the partial consumes the body exactly.
func decodeOptPartial(dst agg.Partial, body []byte) (agg.Partial, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("missing has-partial flag")
	}
	switch body[0] {
	case 0:
		if len(body) != 1 {
			return nil, fmt.Errorf("%d trailing bytes after empty partial", len(body)-1)
		}
		return nil, nil
	case 1:
		p, _, n, err := wire.DecodePartial(dst, body[1:])
		if err != nil {
			return nil, err
		}
		if 1+n != len(body) {
			return nil, fmt.Errorf("%d trailing bytes after partial", len(body)-1-n)
		}
		return p, nil
	}
	return nil, fmt.Errorf("bad has-partial flag %d", body[0])
}
