package transport

import (
	"math/rand"
	"testing"

	"validity/internal/agg"
	"validity/internal/wire"
)

// The benchmarks time the version-4 wire frames on the workload that
// dominates a query: a broadcast-shaped message carrying a 64-vector FM
// count partial.

func benchMessage() Message {
	rng := rand.New(rand.NewSource(17))
	p := agg.NewPartial(agg.Count, 3, agg.Params{Vectors: 64, Bits: 32}, rng)
	return Message{From: 1, To: 2, Query: 42, Chain: 1, Payload: sketchPayload{Round: 9, A: p}}
}

func BenchmarkWireFrame(b *testing.B) {
	msg := benchMessage()
	fr := wire.Frame{
		From: msg.From, To: msg.To,
		Query: int64(msg.Query), Chain: msg.Chain, Payload: msg.Payload,
	}
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendFrame(buf[:0], fr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeFrameBody(buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireFrameEncode isolates the send half — the path inside
// TCP.Send that must stay allocation-free.
func BenchmarkWireFrameEncode(b *testing.B) {
	msg := benchMessage()
	fr := wire.Frame{
		From: msg.From, To: msg.To,
		Query: int64(msg.Query), Chain: msg.Chain, Payload: msg.Payload,
	}
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendFrame(buf[:0], fr)
		if err != nil {
			b.Fatal(err)
		}
	}
}
