package protocol

import (
	"encoding/binary"
	"fmt"
	"math"

	"validity/internal/agg"
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
// The engine runs WILDFIRE (every engine entry point builds NewWildfire,
// and DiameterProbe is WILDFIRE underneath), so its two messages are all
// the wire carries. SpanningTree, DAG, AllReport, RandomizedReport and
// Gossip run on sim.Network only, which passes Go values and never
// encodes; their messages have no codec. Tags 3–11 are retired and must
// not be reassigned: they carried those messages on older builds, whose
// frames must die at decode as an unknown tag. A new codec takes 12 or
// above.
//
// Body layouts (little-endian):
//
//	wfBroadcast:  hop u32  | has u8 | partial?
//	wfConverge:   has u8   | partial?
//
// "partial?" is internal/wire's partial encoding, present iff has = 1.
// Decode copies the partial out of the body into a snapshot from the pool
// (decodeSnap), which the receiving handler releases, or the runtime where
// it drops the frame.
const (
	tagWfBroadcast uint8 = 1
	tagWfConverge  uint8 = 2
)

func init() {
	wire.RegisterTagger(func(payload any) (uint8, bool) {
		switch payload.(type) {
		case wfBroadcast:
			return tagWfBroadcast, true
		case wfConverge:
			return tagWfConverge, true
		}
		return 0, false
	})

	wire.RegisterPayload(tagWfBroadcast, wire.PayloadCodec{
		Name: "wfBroadcast",
		Append: func(buf []byte, payload any) ([]byte, error) {
			s := payload.(wfBroadcast).S
			if s.hop < 0 || s.hop > math.MaxUint32 {
				return nil, fmt.Errorf("hop %d outside u32", s.hop)
			}
			return appendOptPartial(binary.LittleEndian.AppendUint32(buf, uint32(s.hop)), s.partial())
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
}

// appendOptPartial encodes "has u8 | partial?": the optional piggybacked
// partial aggregate both message bodies end with.
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
