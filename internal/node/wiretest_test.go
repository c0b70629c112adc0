package node

import (
	"validity/internal/wire"
)

// Several engine tests ship bare string payloads across the TCP transport
// (tick pingers, demux probes); the version-4 wire frames need a codec
// for them, registered in the reserved test tag space exactly as a test
// harness outside the repo would.
func init() {
	wire.RegisterTagger(func(payload any) (uint8, bool) {
		if _, ok := payload.(string); ok {
			return wire.TagReservedBase, true
		}
		return 0, false
	})
	wire.RegisterPayload(wire.TagReservedBase, wire.PayloadCodec{
		Name: "test-string",
		Append: func(buf []byte, payload any) ([]byte, error) {
			return append(buf, payload.(string)...), nil
		},
		Size:   func(payload any) (int, error) { return len(payload.(string)), nil },
		Decode: func(body []byte) (any, error) { return string(body), nil },
	})
}
