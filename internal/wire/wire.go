// Package wire defines the binary encoding for everything the protocols
// put on the network: partial aggregates (scalars and FM sketches) and the
// transport frame the TCP transport ships them in. The simulator passes Go
// values directly, but a real deployment of WILDFIRE ships bytes; this
// package is the boundary where the paper's "small fixed-size messages"
// claim (§4.4, §6.3) becomes checkable — PartialSize/FrameSize report the
// exact on-wire cost of every message, and the encoding round-trips
// through encoding/binary with no reflection.
//
// Frame layout, version 4 (the unit one conn.Write carries; length prefix
// big-endian, everything after it little-endian unless noted):
//
//	offset  size  field
//	0       4     length   u32 BE — bytes that follow (header + payload)
//	4       2     magic    u16    — 0xDA7A
//	6       1     version  u8     — Version (4)
//	7       1     tag      u8     — payload tag (RegisterPayload)
//	8       4     from     u32    — sending host id
//	12      4     to       u32    — destination host id
//	16      8     query    u64    — QueryID, two's complement
//	24      4     chain    u32    — causal chain, two's complement
//	28      ...   payload body (tag's codec; exact length enforced)
//
// Payload tags 1–239 belong to protocol messages (internal/protocol
// registers WILDFIRE's two, tags 1 and 2, in package init; 3–11 are
// retired); 240–255 are reserved for out-of-tree payloads such as test
// harness messages. Decode is a table
// lookup, not a reflection walk, and encode appends into a caller-owned
// buffer so a steady-state send allocates nothing.
//
// Control frames share the same framing. The one control tag so far is
// the quiescence announce (QuiesceTag, 239 — control tags grow downward
// from the top of the protocol space), which workers send to a query's
// issuing process when the query's local activity counter has been
// silent past one broadcast sweep:
//
//	quiesce body: epoch u32 | activity i64 | quiet u8 (0|1)
//
// QueryID rides the frame header's query field and the announcing
// process is identified by the header's from host. Epochs make stale
// claims supersedable: late local activity bumps the epoch and triggers
// a busy re-announce, so the issuer's early-read path only trusts the
// highest epoch seen per process. See internal/node's quiesce tracker.
//
// Partial layout, version 4. An FM sketch travels as its occupied window:
// the bits below lo are ones in every vector and the bits at or above
// lo+width are zero in every vector, so only bits [lo, lo+width) of each
// vector are sent, bit-packed LSB-first with vector 0 first and the last
// byte zero-padded (fm.Sketch.AppendPacked). A partial's size therefore
// depends on its content, within a bound its header fixes: a sketch takes
// from 2 bytes to 2 + ⌈vectors × bits / 8⌉, and a 2,048-host COUNT at
// vectors=64 about 80 where its declared width is 256. lo + width may not
// exceed bits, the window must be the narrowest that holds the vectors and
// the padding zero, so there is exactly one encoding of every partial.
//
//	scalar partial:  aggKind u8 | value i64
//	sketch partial:  aggKind u8 | vectors u8 | bits u8 | window
//	avg partial:     aggKind u8 | vectors u8 | bits u8 | window (sum) | window (count)
//	window:          lo u8 | width u8 | ⌈vectors × width / 8⌉ bytes
//
// An agg.Partial knows its kind, so AppendPartial and PartialSize take the
// layout from the partial itself, and DecodePartial fills a caller's
// partial in place, whatever kind it held before.
//
// Version 3 shipped every vector at its declared width, 4 or 8 bytes; its
// frames are rejected by the version check, as version 2's are, so the
// processes of one fleet must run the same build.
package wire

import (
	"encoding/binary"
	"fmt"

	"validity/internal/agg"
	"validity/internal/fm"
)

// Magic identifies a validity-protocol frame.
const Magic uint16 = 0xDA7A

// Version is the current wire version: 4 ships each FM sketch as its
// occupied window (see the package comment); 3 shipped every vector at its
// declared width.
const Version uint8 = 4

// partial wire tags mirror agg.Kind but are pinned explicitly so that the
// wire format never shifts if the enum is reordered.
const (
	tagMin   uint8 = 1
	tagMax   uint8 = 2
	tagCount uint8 = 3
	tagSum   uint8 = 4
	tagAvg   uint8 = 5
)

func kindTag(k agg.Kind) (uint8, error) {
	switch k {
	case agg.Min:
		return tagMin, nil
	case agg.Max:
		return tagMax, nil
	case agg.Count:
		return tagCount, nil
	case agg.Sum:
		return tagSum, nil
	case agg.Avg:
		return tagAvg, nil
	}
	return 0, fmt.Errorf("wire: unknown aggregate kind %d", int(k))
}

func tagKind(t uint8) (agg.Kind, error) {
	switch t {
	case tagMin:
		return agg.Min, nil
	case tagMax:
		return agg.Max, nil
	case tagCount:
		return agg.Count, nil
	case tagSum:
		return agg.Sum, nil
	case tagAvg:
		return agg.Avg, nil
	}
	return 0, fmt.Errorf("wire: unknown aggregate tag %d", t)
}

// AppendPartial encodes p, in the layout of its kind, onto buf and
// returns the extended slice. A partial that holds no aggregate has no
// encoding.
func AppendPartial(buf []byte, p *agg.Partial) ([]byte, error) {
	k, ok := p.Kind()
	if !ok {
		return nil, fmt.Errorf("wire: partial holds no aggregate")
	}
	tag, err := kindTag(k)
	if err != nil {
		return nil, err
	}
	if k == agg.Min || k == agg.Max {
		return binary.LittleEndian.AppendUint64(append(buf, tag), uint64(p.Scalar())), nil
	}
	a, b, err := wireSketches(p)
	if err != nil {
		return nil, err
	}
	buf = a.AppendPacked(append(buf, tag, uint8(a.Vectors()), uint8(a.Bits())))
	if b != nil {
		buf = b.AppendPacked(buf)
	}
	return buf, nil
}

// wireSketches fetches and validates the sketches of a sketch partial
// without allocating: the shared front half of AppendPartial and
// PartialSize, so encoding and arithmetic sizing can never disagree on
// what is representable.
func wireSketches(p *agg.Partial) (a, b *fm.Sketch, err error) {
	a, b = p.Sketches()
	if a.Vectors() > 255 {
		return nil, nil, fmt.Errorf("wire: %d vectors exceed the wire limit of 255", a.Vectors())
	}
	if b != nil && (b.Vectors() != a.Vectors() || b.Bits() != a.Bits()) {
		return nil, nil, fmt.Errorf("wire: mismatched sketch dimensions within partial")
	}
	return a, b, nil
}

// PartialSize is AppendPartial's output length, computed from the
// sketches' windows without encoding — the payload codecs use it to size
// frames on the send hot path.
func PartialSize(p *agg.Partial) (int, error) {
	k, ok := p.Kind()
	if !ok {
		return 0, fmt.Errorf("wire: partial holds no aggregate")
	}
	if k == agg.Min || k == agg.Max {
		return 1 + 8, nil // tag + i64 value
	}
	a, b, err := wireSketches(p)
	if err != nil {
		return 0, err
	}
	n := 3 + a.PackedSize() // tag + vectors + bits header, then the window
	if b != nil {
		n += b.PackedSize()
	}
	return n, nil
}

// DecodePartial decodes a partial from buf into dst, in place whatever
// kind dst held, and returns the number of bytes consumed. dst's storage
// is reused — a sketch's vectors unpacked straight into it and everything
// of the decoded kind overwritten — so a receiver that recycles its
// partials decodes without allocating. On an error what dst holds is
// unspecified.
func DecodePartial(dst *agg.Partial, buf []byte) (int, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("wire: empty partial")
	}
	k, err := tagKind(buf[0])
	if err != nil {
		return 0, err
	}
	if k == agg.Min || k == agg.Max {
		if len(buf) < 9 {
			return 0, fmt.Errorf("wire: truncated scalar partial")
		}
		dst.Refill(k, int64(binary.LittleEndian.Uint64(buf[1:9])))
		return 9, nil
	}
	if len(buf) < 3 {
		return 0, fmt.Errorf("wire: truncated sketch header")
	}
	vectors, bits := int(buf[1]), int(buf[2]) // vetted by fm.ReadPacked
	a, b := dst.Refill(k, 0)                  // b is the avg count sketch, nil otherwise
	used := 3
	for _, sk := range [...]*fm.Sketch{a, b} {
		if sk == nil {
			break
		}
		size, err := fm.ReadPacked(sk, vectors, bits, buf[used:])
		if err != nil {
			return 0, fmt.Errorf("wire: %w", err)
		}
		used += size
	}
	return used, nil
}
