package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"validity/internal/graph"
)

// The transport frame (wire version 4): the unit one connection write
// carries. The 4-byte big-endian length prefix counts everything after
// itself — a 24-byte fixed header followed by the payload body owned by
// the payload tag's codec. See the package doc for the field table.
const (
	// FrameHeaderSize is the fixed header after the length prefix:
	// magic (2) + version (1) + tag (1) + from (4) + to (4) +
	// query (8) + chain (4).
	FrameHeaderSize = 24
	// FrameOverhead is the full fixed cost of one frame: length prefix
	// plus header. FrameSize(payload) = FrameOverhead + the payload
	// codec's body size.
	FrameOverhead = 4 + FrameHeaderSize
)

// Payload tag space: explicit, pinned tags replace gob's reflective
// interface registration. Protocol messages own 1–239; 240–255 are
// reserved for out-of-tree payloads (test harnesses register theirs
// there). Tag 0 is invalid on the wire.
const (
	// TagReservedBase is the first tag available to out-of-tree payload
	// codecs (tests); tags below it belong to internal/protocol.
	TagReservedBase uint8 = 240
)

// Frame is one decoded transport frame: the routing header the node
// runtime demultiplexes on, plus the decoded payload.
type Frame struct {
	From, To graph.HostID
	Query    int64
	Chain    int
	Payload  any
}

// PayloadCodec encodes and decodes one concrete payload type. Append and
// Size must agree exactly (Append grows buf by Size bytes); Decode must
// consume the whole body and reject any other length, so a truncated or
// padded frame is an error, never a silent partial decode.
type PayloadCodec struct {
	// Name labels the codec in errors ("wfBroadcast").
	Name string
	// Append encodes payload onto buf and returns the extended slice.
	Append func(buf []byte, payload any) ([]byte, error)
	// Size is Append's growth in bytes, computed without encoding.
	Size func(payload any) (int, error)
	// Decode rebuilds the payload from exactly the body bytes. It must
	// not alias body: the payload outlives the call — it waits on a shard
	// queue until its handler runs — and the TCP read loop overwrites body
	// with the connection's next frame. It may build the payload in
	// recycled storage (WILDFIRE decodes into snapshots from its pool,
	// which its handler releases).
	Decode func(body []byte) (any, error)
}

// The registry is written only from package init functions (protocol and
// test packages register their codecs before any goroutine touches the
// wire), so the hot-path lookups are plain loads with no lock.
var (
	payloadCodecs [256]*PayloadCodec
	taggers       []func(payload any) (uint8, bool)
)

// RegisterPayload binds tag to codec. Call from package init only — the
// registry is read lock-free on the send and receive hot paths. Tag 0 and
// double registration panic: both are wiring bugs, not runtime inputs.
func RegisterPayload(tag uint8, codec PayloadCodec) {
	if tag == 0 {
		panic("wire: payload tag 0 is reserved")
	}
	if payloadCodecs[tag] != nil {
		panic(fmt.Sprintf("wire: payload tag %d registered twice (%s, %s)",
			tag, payloadCodecs[tag].Name, codec.Name))
	}
	if codec.Append == nil || codec.Size == nil || codec.Decode == nil {
		panic(fmt.Sprintf("wire: payload codec %s is missing a function", codec.Name))
	}
	c := codec
	payloadCodecs[tag] = &c
}

// RegisterTagger adds a payload→tag mapping (one type switch per
// registering package). Call from package init only.
func RegisterTagger(fn func(payload any) (uint8, bool)) {
	taggers = append(taggers, fn)
}

// PayloadTag resolves a payload value to its registered wire tag.
func PayloadTag(payload any) (uint8, bool) {
	for _, fn := range taggers {
		if tag, ok := fn(payload); ok {
			return tag, true
		}
	}
	return 0, false
}

// PayloadSize returns the body size the payload's codec will append, or an
// error for payloads with no registered codec.
func PayloadSize(payload any) (int, error) {
	tag, ok := PayloadTag(payload)
	if !ok {
		return 0, fmt.Errorf("wire: no payload codec for %T", payload)
	}
	return payloadCodecs[tag].Size(payload)
}

// FrameSize is the exact number of bytes AppendFrame emits for f: the
// fixed overhead plus the payload body. This is the size the node engine
// charges per sent message (§6.3 bytes-on-the-wire accounting).
func FrameSize(payload any) (int, error) {
	n, err := PayloadSize(payload)
	if err != nil {
		return 0, err
	}
	return FrameOverhead + n, nil
}

// AppendFrame encodes f — length prefix, header, payload body — onto buf
// and returns the extended slice. With a registered codec and a buffer of
// sufficient capacity it performs no allocation, which is what lets the
// transport recycle send buffers through a sync.Pool.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	tag, ok := PayloadTag(f.Payload)
	if !ok {
		return nil, fmt.Errorf("wire: no payload codec for %T", f.Payload)
	}
	if f.From < 0 || f.To < 0 {
		return nil, fmt.Errorf("wire: negative host id %d→%d", f.From, f.To)
	}
	if f.Chain < math.MinInt32 || f.Chain > math.MaxInt32 {
		return nil, fmt.Errorf("wire: chain %d outside int32", f.Chain)
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix, patched below
	buf = binary.LittleEndian.AppendUint16(buf, Magic)
	buf = append(buf, Version, tag)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.To))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Query))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(f.Chain)))
	buf, err := payloadCodecs[tag].Append(buf, f.Payload)
	if err != nil {
		return nil, fmt.Errorf("wire: encode %s: %w", payloadCodecs[tag].Name, err)
	}
	binary.BigEndian.PutUint32(buf[start:start+4], uint32(len(buf)-start-4))
	return buf, nil
}

// DecodeFrameBody parses one frame body — everything after the length
// prefix, which the transport has already consumed to delimit the frame.
// Hostile input errors; it never panics, and it allocates nothing beyond
// what the payload codec builds.
func DecodeFrameBody(body []byte) (Frame, error) {
	var f Frame
	if len(body) < FrameHeaderSize {
		return f, fmt.Errorf("wire: frame body too short (%d bytes)", len(body))
	}
	if binary.LittleEndian.Uint16(body[0:2]) != Magic {
		return f, fmt.Errorf("wire: bad frame magic %#x", binary.LittleEndian.Uint16(body[0:2]))
	}
	if body[2] != Version {
		return f, fmt.Errorf("wire: frame version %d, this build speaks %d", body[2], Version)
	}
	tag := body[3]
	codec := payloadCodecs[tag]
	if codec == nil {
		return f, fmt.Errorf("wire: unknown payload tag %d", tag)
	}
	from := binary.LittleEndian.Uint32(body[4:8])
	to := binary.LittleEndian.Uint32(body[8:12])
	if from > math.MaxInt32 || to > math.MaxInt32 {
		return f, fmt.Errorf("wire: host id %d→%d outside int32", from, to)
	}
	f.From = graph.HostID(from)
	f.To = graph.HostID(to)
	f.Query = int64(binary.LittleEndian.Uint64(body[12:20]))
	f.Chain = int(int32(binary.LittleEndian.Uint32(body[20:24])))
	payload, err := codec.Decode(body[FrameHeaderSize:])
	if err != nil {
		return f, fmt.Errorf("wire: decode %s: %w", codec.Name, err)
	}
	f.Payload = payload
	return f, nil
}
