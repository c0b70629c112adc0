package transport

import (
	"testing"
	"time"
)

// The ring must hand deliveries back in push order through both of its
// awkward moments: the head wrapping past the end of the buffer, and a
// doubling that happens while the queued run straddles that end.
func TestDeliveryRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var r deliveryRing
	next, want := 0, 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			r.push(delivery{msg: Message{Chain: next, Payload: next}})
			next++
		}
	}
	pop := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if got := r.pop().msg.Chain; got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push(ringMinCap - 8)
	pop(ringMinCap - 16) // head now deep into the buffer
	push(20)             // tail wraps
	if len(r.buf) != ringMinCap {
		t.Fatalf("ring grew to %d with only %d queued", len(r.buf), r.n)
	}
	if r.head+r.n <= len(r.buf) {
		t.Fatalf("test set-up: queued run [%d,+%d) does not straddle the end", r.head, r.n)
	}
	push(3 * ringMinCap) // grows (twice) while wrapped
	if c := len(r.buf); c&(c-1) != 0 || c < r.n {
		t.Fatalf("ring capacity %d is not a power of two holding %d", c, r.n)
	}
	pop(r.n)
	if r.n != 0 {
		t.Fatalf("%d entries left", r.n)
	}
	// Every vacated slot was zeroed: a drained ring pins no payload.
	for i, d := range r.buf {
		if d != (delivery{}) {
			t.Fatalf("slot %d still holds %+v after its pop", i, d)
		}
	}
	// The grown buffer is kept for the next burst.
	c := len(r.buf)
	push(c)
	if len(r.buf) != c {
		t.Fatalf("refilling a drained ring reallocated: cap %d -> %d", c, len(r.buf))
	}
	pop(c)
}

// recorder collects payloads in delivery order and signals done when the
// payload `last` arrives. recv runs on the transport's single scheduler
// goroutine; the test may touch got and last only before sending and
// after wait — the transport's lock and the done signal order the two.
type recorder struct {
	got  []int
	last int
	done chan struct{} // cap 1: one signal per awaited payload
}

func newRecorder(last int) *recorder {
	return &recorder{last: last, done: make(chan struct{}, 1)}
}

func (r *recorder) recv(m Message) {
	v := m.Payload.(int)
	r.got = append(r.got, v)
	if v == r.last {
		r.done <- struct{}{}
	}
}

func (r *recorder) wait(t *testing.T) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out after %d deliveries", len(r.got))
	}
}

func TestChannelDeliversInSendOrderAcrossBursts(t *testing.T) {
	const burst = 5 * ringMinCap // forces growth while earlier frames are in flight
	tr := NewChannel(2, 2*time.Millisecond)
	defer tr.Close()
	rec := newRecorder(-1)
	if err := tr.Bind(1, rec.recv); err != nil {
		t.Fatal(err)
	}
	seq := 0
	for round := 0; round < 3; round++ { // later rounds reuse the grown ring
		rec.got, rec.last = rec.got[:0], seq+burst-1
		first := seq
		for i := 0; i < burst; i++ {
			if err := tr.Send(Message{From: 0, To: 1, Payload: seq}); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		rec.wait(t)
		if len(rec.got) != burst {
			t.Fatalf("round %d: %d deliveries, want %d", round, len(rec.got), burst)
		}
		for i, v := range rec.got {
			if v != first+i {
				t.Fatalf("round %d: delivery %d carried %d, want %d", round, i, v, first+i)
			}
		}
	}
}

func TestChannelCloseWithFramesInFlightReturns(t *testing.T) {
	tr := NewChannel(2, time.Hour)
	rec := newRecorder(-1)
	if err := tr.Bind(1, rec.recv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*ringMinCap; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		tr.Close() // waits for the scheduler goroutine to exit
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a non-empty delivery ring")
	}
	if len(rec.got) != 0 {
		t.Fatalf("%d frames delivered before their due time", len(rec.got))
	}
	if err := tr.Send(Message{From: 0, To: 1, Payload: 0}); err == nil {
		t.Fatal("Send on a closed transport succeeded")
	}
}
