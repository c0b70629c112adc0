package transport

import (
	"math/rand"
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/obs"
	"validity/internal/wire"
)

// TestTCPWriteCoalescing checks the tentpole property of the writer
// goroutines: frames that queue for one peer while a write is in flight
// are packed into the next connection write, and the batching metrics
// account for every frame. The test plays the in-flight write itself, by
// holding the connection's write lock while the burst queues.
func TestTCPWriteCoalescing(t *testing.T) {
	ports := freeAddrs(t, 2)
	addrs := []string{ports[0], ports[1]}
	a, b := NewTCP(addrs), NewTCP(addrs)
	reg := obs.NewRegistry()
	a.Obs = reg
	var ca, cb collector
	if err := a.Bind(0, ca.recv); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind(1, cb.recv); err != nil {
		t.Fatal(err)
	}
	if err := a.Open(); err != nil {
		t.Fatal(err)
	}
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })

	conn, err := a.conn(ports[1])
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	conn.mu.Lock()
	for i := 0; i < n; i++ {
		if err := a.Send(Message{From: 0, To: 1, Chain: i, Payload: "burst"}); err != nil {
			conn.mu.Unlock()
			t.Fatal(err)
		}
	}
	conn.mu.Unlock()
	cb.waitFor(t, n, 5*time.Second)

	// The writer counts a batch after its write returns, which the peer's
	// read may beat.
	out := reg.Counter("transport_frames_out_total", "", "peer="+ports[1])
	for deadline := time.Now().Add(5 * time.Second); out.Value() < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	flushes := reg.Counter("transport_batch_flushes_total", "").Value()
	framesOut := out.Value()
	dropped := reg.Counter("transport_frames_dropped_total", "").Value()
	hist := reg.Histogram("transport_frames_per_write", "", batchBuckets)
	if framesOut != n {
		t.Fatalf("frames_out = %d, want %d", framesOut, n)
	}
	if dropped != 0 {
		t.Fatalf("%d frames dropped", dropped)
	}
	// The writer was parked on the lock with whatever it had picked up by
	// then; everything else went out in one more write.
	if flushes < 1 || flushes > 2 {
		t.Fatalf("flushes = %d for %d frames queued behind one write, want ≤ 2", flushes, n)
	}
	if hist.Count() != flushes {
		t.Fatalf("frames_per_write observations = %d, flushes = %d", hist.Count(), flushes)
	}
	if int64(hist.Sum()) != n {
		t.Fatalf("frames_per_write sum = %.0f, want %d frames", hist.Sum(), n)
	}
}

// TestTCPUnknownPeerCounterFallback is the regression test for the
// nil-counter branch: the per-peer outbound counters are built once at
// Open, and an address that looked local then (another host sharing this
// process's address but bound elsewhere) has no per-peer series — its
// frames must land on the peer=unknown pair instead of a nil counter.
func TestTCPUnknownPeerCounterFallback(t *testing.T) {
	ports := freeAddrs(t, 1)
	// Hosts 0 and 1 share one address; only host 0 is bound here, so a
	// send to host 1 goes over the wire to an address initMetrics skipped
	// as local.
	addrs := []string{ports[0], ports[0]}
	tr := NewTCP(addrs)
	reg := obs.NewRegistry()
	tr.Obs = reg
	var c0 collector
	if err := tr.Bind(0, c0.recv); err != nil {
		t.Fatal(err)
	}
	if err := tr.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	if err := tr.Send(Message{From: 0, To: 1, Chain: 1, Payload: "stray"}); err != nil {
		t.Fatal(err)
	}
	unknownFrames := reg.Counter("transport_frames_out_total", "", "peer=unknown")
	unknownBytes := reg.Counter("transport_bytes_out_total", "", "peer=unknown")
	deadline := time.Now().Add(5 * time.Second)
	for unknownFrames.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := unknownFrames.Value(); got != 1 {
		t.Fatalf("peer=unknown frames = %d, want 1", got)
	}
	if unknownBytes.Value() <= wire.FrameHeaderSize {
		t.Fatalf("peer=unknown bytes = %d, want a full frame", unknownBytes.Value())
	}
	if dropped := reg.Counter("transport_frames_dropped_total", "").Value(); dropped != 0 {
		t.Fatalf("%d frames dropped", dropped)
	}
}

// TestWireFrameEncodeAllocFree pins the steady-state encode allocation
// budget at zero: with the payload interface boxed once (as it is inside
// Message) and the destination buffer recycled (as the frame pool does),
// AppendFrame must not allocate even for a sketch-carrying payload.
func TestWireFrameEncodeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := agg.NewPartial(agg.Count, 3, agg.Params{Vectors: 64, Bits: 32}, rng)
	var payload any = sketchPayload{Round: 9, A: p}
	fr := wire.Frame{From: 1, To: 2, Query: 42, Chain: 1, Payload: payload}
	buf := make([]byte, 0, 2048)
	allocs := testing.AllocsPerRun(500, func() {
		var err error
		buf, err = wire.AppendFrame(buf[:0], fr)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFrame allocates %.1f times per frame, want 0", allocs)
	}
}

// TestWireFrameDecodeAllocs pins the receive half: decoding a
// sketch-carrying frame allocates the boxed message, the partial and the
// partial's vector storage — the vectors are read straight into the
// storage the partial keeps — and nothing else.
func TestWireFrameDecodeAllocs(t *testing.T) {
	msg := benchMessage()
	buf, err := wire.AppendFrame(nil, wire.Frame{From: msg.From, To: msg.To, Query: 42, Chain: 1, Payload: msg.Payload})
	if err != nil {
		t.Fatal(err)
	}
	var sink wire.Frame
	allocs := testing.AllocsPerRun(500, func() {
		if sink, err = wire.DecodeFrameBody(buf[4:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("DecodeFrameBody allocates %.1f times per sketch frame, want 3", allocs)
	}
	if !sink.Payload.(sketchPayload).A.Equal(msg.Payload.(sketchPayload).A) {
		t.Fatal("decoded partial differs")
	}
}
