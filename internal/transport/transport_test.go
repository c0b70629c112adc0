package transport

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/wire"
)

// sketchPayload exercises the wire path the protocols rely on: an
// interface field carrying a partial aggregate, shipped through the codec
// registered in wiretest_test.go.
type sketchPayload struct {
	Round int
	A     agg.Partial
}

// collector accumulates delivered messages.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collector) recv(m Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) []Message {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages (got %d)", n, c.count())
	return nil
}

func TestChannelRoundTrip(t *testing.T) {
	tr := NewChannel(2, 0)
	defer tr.Close()
	var c0, c1 collector
	if err := tr.Bind(0, c0.recv); err != nil {
		t.Fatal(err)
	}
	if err := tr.Bind(1, c1.recv); err != nil {
		t.Fatal(err)
	}
	if err := tr.Open(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Message{From: 0, To: 1, Chain: 1, Payload: "ping"}); err != nil {
		t.Fatal(err)
	}
	got := c1.waitFor(t, 1, time.Second)
	if got[0].Payload != "ping" || got[0].Chain != 1 {
		t.Fatalf("got %+v", got[0])
	}
	if err := tr.Send(Message{From: 1, To: 0, Chain: 2, Payload: "pong"}); err != nil {
		t.Fatal(err)
	}
	c0.waitFor(t, 1, time.Second)
}

func TestChannelDoubleBindFails(t *testing.T) {
	tr := NewChannel(1, 0)
	defer tr.Close()
	if err := tr.Bind(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Bind(0, func(Message) {}); err == nil {
		t.Fatal("double bind succeeded")
	}
}

// freeAddrs reserves n distinct loopback addresses by briefly listening on
// port 0 and releasing the listeners.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// newTCPPair builds two TCP transports emulating two processes: transport
// A serves host 0, transport B serves hosts 1 and 2 (the co-located pair
// exercises the shared-listener path).
func newTCPPair(t *testing.T) (a, b *TCP, ca, cb1, cb2 *collector) {
	t.Helper()
	ports := freeAddrs(t, 2)
	addrs := []string{ports[0], ports[1], ports[1]}
	a, b = NewTCP(addrs), NewTCP(addrs)
	ca, cb1, cb2 = &collector{}, &collector{}, &collector{}
	if err := a.Bind(0, ca.recv); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind(1, cb1.recv); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind(2, cb2.recv); err != nil {
		t.Fatal(err)
	}
	if err := a.Open(); err != nil {
		t.Fatal(err)
	}
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, ca, cb1, cb2
}

func TestTCPLoopbackRoundTrip(t *testing.T) {
	a, b, ca, cb1, _ := newTCPPair(t)
	// A → B carrying an FM count partial, B → A echoing it back: the
	// partial must survive two wire-frame trips intact.
	rng := rand.New(rand.NewSource(1))
	p := agg.NewPartial(agg.Count, 1, agg.Params{Vectors: 8, Bits: 32}, rng)
	if err := a.Send(Message{From: 0, To: 1, Chain: 1, Payload: sketchPayload{Round: 7, A: p}}); err != nil {
		t.Fatal(err)
	}
	got := cb1.waitFor(t, 1, 2*time.Second)
	pl, ok := got[0].Payload.(sketchPayload)
	if !ok {
		t.Fatalf("payload decoded as %T", got[0].Payload)
	}
	if pl.Round != 7 || !pl.A.Equal(p) {
		t.Fatalf("payload corrupted in transit: %+v", pl)
	}
	if got[0].From != 0 || got[0].To != 1 || got[0].Chain != 1 {
		t.Fatalf("envelope corrupted: %+v", got[0])
	}
	if err := b.Send(Message{From: 1, To: 0, Chain: 2, Payload: pl}); err != nil {
		t.Fatal(err)
	}
	back := ca.waitFor(t, 1, 2*time.Second)
	if !back[0].Payload.(sketchPayload).A.Equal(p) {
		t.Fatal("echoed partial corrupted")
	}
}

// lockedBuffer is a log sink the read loop's goroutine and the test share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// A frame the decoder rejects — here hand-built version-2 and version-3
// frames, what a peer on an older build would send — drops its connection
// as before, but is counted and logged once, naming both versions so the
// operator knows which process to upgrade: a fleet mixing wire versions
// does not just go quiet; later connections are unaffected.
func TestTCPUndecodableFrameCountedAndLogged(t *testing.T) {
	ports := freeAddrs(t, 2)
	a, b := NewTCP(ports), NewTCP(ports)
	reg, logs := obs.NewRegistry(), &lockedBuffer{}
	b.Obs, b.Log = reg, obs.NewLogger(logs, slog.LevelWarn)
	var cb collector
	if err := a.Bind(0, func(Message) {}); err != nil {
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

	undecodable := reg.Counter("transport_frames_undecodable_total", "")
	for i, version := range []byte{2, 3} {
		old, err := wire.AppendFrame(nil, wire.Frame{From: 0, To: 1, Query: 1, Chain: 1, Payload: "from an old build"})
		if err != nil {
			t.Fatal(err)
		}
		old[4+2] = version // the version byte, after the length prefix and the magic
		c, err := net.Dial("tcp", ports[1])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Two frames in one write: the connection is dropped at the first,
		// so the second is never decoded, counted or logged.
		if _, err := c.Write(append(old, old...)); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read on the offending connection = %v, want EOF: the receiver must drop it", err)
		}
		if got := undecodable.Value(); got != int64(i+1) {
			t.Fatalf("transport_frames_undecodable_total = %d after %d stale connections", got, i+1)
		}
		want := fmt.Sprintf("frame version %d, this build speaks %d", version, wire.Version)
		if got := strings.Count(logs.String(), want); got != 1 {
			t.Fatalf("%q logged %d times, want once:\n%s", want, got, logs.String())
		}
	}
	if !strings.Contains(logs.String(), "level=WARN") {
		t.Fatalf("not logged at warn:\n%s", logs.String())
	}

	if err := a.Send(Message{From: 0, To: 1, Query: 1, Chain: 1, Payload: "from this build"}); err != nil {
		t.Fatal(err)
	}
	got := cb.waitFor(t, 1, 2*time.Second)
	if len(got) != 1 || got[0].Payload != "from this build" {
		t.Fatalf("delivered %+v, want only this build's frame", got)
	}
	if got := undecodable.Value(); got != 2 {
		t.Fatalf("transport_frames_undecodable_total = %d after a good frame, want 2", got)
	}
}

// A frame for a host this process does not serve — what a peer started
// with another host→address map sends — is counted and warned about once
// per connection, naming the host and the peer, and the connection keeps
// carrying the frames that are routed right.
func TestTCPMisroutedFrameCountedAndLogged(t *testing.T) {
	ports := freeAddrs(t, 2)
	b := NewTCP([]string{ports[0], ports[1], ports[1]}) // host 2 is mapped here but not served
	reg, logs := obs.NewRegistry(), &lockedBuffer{}
	b.Obs, b.Log = reg, obs.NewLogger(logs, slog.LevelWarn)
	var cb collector
	if err := b.Bind(1, cb.recv); err != nil {
		t.Fatal(err)
	}
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c, err := net.Dial("tcp", ports[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := func(to graph.HostID, payload string) []byte {
		buf, err := wire.AppendFrame(nil, wire.Frame{From: 0, To: to, Query: 1, Chain: 1, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	misrouted := reg.Counter("transport_frames_misrouted_total", "")
	for i, want := range []int64{1, 2} {
		if _, err := c.Write(append(frame(2, "lost"), frame(1, "routed")...)); err != nil {
			t.Fatal(err)
		}
		got := cb.waitFor(t, i+1, 2*time.Second)
		if got[i].Payload != "routed" {
			t.Fatalf("delivered %+v, want the routed frame", got[i])
		}
		if n := misrouted.Value(); n != want {
			t.Fatalf("transport_frames_misrouted_total = %d after %d misrouted frames", n, want)
		}
	}
	line := "transport: dropping frames for a host this process does not serve"
	if got := strings.Count(logs.String(), line); got != 1 {
		t.Fatalf("%q logged %d times, want once per connection:\n%s", line, got, logs.String())
	}
	if !strings.Contains(logs.String(), "level=WARN") || !strings.Contains(logs.String(), "host=2") ||
		!strings.Contains(logs.String(), "peer="+c.LocalAddr().String()) {
		t.Fatalf("the warning names no host or peer, or not at warn:\n%s", logs.String())
	}
}

func TestTCPLocalShortcut(t *testing.T) {
	_, b, _, _, cb2 := newTCPPair(t)
	// Host 1 and 2 share transport B: delivery must work without a socket.
	if err := b.Send(Message{From: 1, To: 2, Payload: "hi"}); err != nil {
		t.Fatal(err)
	}
	if got := cb2.waitFor(t, 1, time.Second); got[0].Payload != "hi" {
		t.Fatalf("got %+v", got[0])
	}
}

// TestSerializesPerDestination pins what each transport answers: the chan
// transport hands every payload over in process; TCP encodes a frame for
// any host it has not bound, and only those.
func TestSerializesPerDestination(t *testing.T) {
	c := NewChannel(3, 0)
	a, b, _, _, _ := newTCPPair(t)
	for h := graph.HostID(0); h < 3; h++ {
		if c.Serializes(h) {
			t.Errorf("Channel serializes a frame for host %d", h)
		}
		if got, want := a.Serializes(h), h != 0; got != want {
			t.Errorf("TCP serving host 0: Serializes(%d) = %t, want %t", h, got, want)
		}
		if got, want := b.Serializes(h), h == 0; got != want {
			t.Errorf("TCP serving hosts 1 and 2: Serializes(%d) = %t, want %t", h, got, want)
		}
	}
}

func TestTCPSendUnboundHostDropsSilently(t *testing.T) {
	a, _, _, _, _ := newTCPPair(t)
	// Host 2's address is B; a frame for a host B never bound (here: a
	// wrong ID mapped to B's address) must not wedge the stream. Send to a
	// bound host afterwards still works.
	if err := a.Send(Message{From: 0, To: 2, Payload: "ok"}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPDialRetryToleratesLateListener(t *testing.T) {
	ports := freeAddrs(t, 2)
	addrs := []string{ports[0], ports[1]}
	a := NewTCP(addrs)
	if err := a.Bind(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Open(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var cb collector
	b := NewTCP(addrs)
	if err := b.Bind(1, cb.recv); err != nil {
		t.Fatal(err)
	}

	// Start sending before B listens; the lazy dial must retry until B's
	// listener appears (validityd fleets start in arbitrary order).
	errCh := make(chan error, 1)
	go func() { errCh <- a.Send(Message{From: 0, To: 1, Payload: "early"}) }()
	time.Sleep(200 * time.Millisecond)
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("send did not survive late listener: %v", err)
	}
	cb.waitFor(t, 1, 2*time.Second)
}

// TestTCPDialBackoffSchedule pins the reconnect policy: waits are jittered
// within [cur/2, 3·cur/2), the backoff doubles per failure, and it never
// exceeds the cap. Deterministic rnd stubs make the bounds exact.
func TestTCPDialBackoffSchedule(t *testing.T) {
	const max = 160 * time.Millisecond
	low := func(int64) int64 { return 0 }
	cur := 20 * time.Millisecond
	var wantNext = []time.Duration{40, 80, 160, 160, 160} // ms, capped
	for i, wn := range wantNext {
		wait, next := dialBackoff(cur, max, low)
		if wait != cur/2 {
			t.Fatalf("step %d: zero-jitter wait = %v, want %v", i, wait, cur/2)
		}
		if next != wn*time.Millisecond {
			t.Fatalf("step %d: next backoff = %v, want %v", i, next, wn*time.Millisecond)
		}
		cur = next
	}
	// Maximum jitter: wait approaches 3·cur/2 but never reaches it.
	high := func(n int64) int64 { return n - 1 }
	wait, _ := dialBackoff(40*time.Millisecond, max, high)
	if wait < 40*time.Millisecond || wait >= 60*time.Millisecond {
		t.Fatalf("max-jitter wait %v outside [cur, 3·cur/2)", wait)
	}
	// A zero current backoff falls back to the default instead of spinning.
	wait, next := dialBackoff(0, max, low)
	if wait <= 0 || next <= 0 {
		t.Fatalf("degenerate backoff: wait=%v next=%v", wait, next)
	}
	// Unlimited cap (0) keeps the current backoff: no runaway doubling
	// without an explicit ceiling.
	if _, next := dialBackoff(80*time.Millisecond, 0, low); next != 80*time.Millisecond {
		t.Fatalf("uncapped backoff escalated to %v", next)
	}
	// A starting backoff above the cap is clamped down to it, both for
	// the wait and for every retry after.
	wait, next = dialBackoff(time.Second, max, low)
	if wait != max/2 || next != max {
		t.Fatalf("over-cap backoff not clamped: wait=%v next=%v, want %v/%v", wait, next, max/2, max)
	}
}

// TestTCPSendNotBlockedByWarmBackoff pins the single-flight granularity:
// a Warm retrying a still-booting peer escalates to long backoff sleeps,
// and a Send issued the moment the peer finally appears must dial
// immediately instead of waiting out the warmer's schedule (the
// regression crippled a cold fleet's first query: its convergecast
// replies sat behind a 500ms warm sleep while the 2D̂δ deadline expired).
func TestTCPSendNotBlockedByWarmBackoff(t *testing.T) {
	ports := freeAddrs(t, 2)
	addrs := []string{ports[0], ports[1]}
	a := NewTCP(addrs)
	// Pathological backoff makes the stall unmistakable if Send ever
	// shares the warmer's sleep.
	a.DialBackoff = 2 * time.Second
	a.DialBackoffMax = 2 * time.Second
	a.DialBudget = 30 * time.Second
	if err := a.Bind(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Open(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Warm() // peer 1 is down: the warm dial fails and enters its backoff

	time.Sleep(100 * time.Millisecond) // let the first warm attempt fail

	var cb collector
	b := NewTCP(addrs)
	if err := b.Bind(1, cb.recv); err != nil {
		t.Fatal(err)
	}
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	start := time.Now()
	if err := a.Send(Message{From: 0, To: 1, Payload: "now"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("send stalled %v behind the warmer's backoff sleep", elapsed)
	}
	cb.waitFor(t, 1, 2*time.Second)
}

// TestTCPBackoffSurvivesLongOutage covers a peer that comes up well after
// the first dial wave: the sender's capped exponential backoff must keep
// retrying across several doublings (20→40→80→160…ms) and deliver once
// the listener finally appears.
func TestTCPBackoffSurvivesLongOutage(t *testing.T) {
	ports := freeAddrs(t, 2)
	addrs := []string{ports[0], ports[1]}
	a := NewTCP(addrs)
	if err := a.Bind(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Open(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var cb collector
	b := NewTCP(addrs)
	if err := b.Bind(1, cb.recv); err != nil {
		t.Fatal(err)
	}

	const outage = 600 * time.Millisecond
	start := time.Now()
	errCh := make(chan error, 1)
	go func() { errCh <- a.Send(Message{From: 0, To: 1, Payload: "patient"}) }()
	time.Sleep(outage)
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("send did not survive %v outage: %v", outage, err)
	}
	if elapsed := time.Since(start); elapsed < outage {
		t.Fatalf("send returned after %v, before the peer existed", elapsed)
	}
	cb.waitFor(t, 1, 2*time.Second)
}

func TestGraphHostIDWireStability(t *testing.T) {
	// HostID is int32; the wire must not silently truncate.
	tr := NewChannel(1, 0)
	defer tr.Close()
	var c collector
	if err := tr.Bind(0, c.recv); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Message{From: graph.HostID(0), To: 0, Payload: int64(1 << 40)}); err != nil {
		t.Fatal(err)
	}
	if got := c.waitFor(t, 1, time.Second); got[0].Payload.(int64) != 1<<40 {
		t.Fatal("payload truncated")
	}
}

// TestTCPWarmPreDials checks the warm-up path: Warm establishes the
// connection to every remote peer in the background, so the first Send
// finds a hot cache instead of paying a dial, and Warm toward a peer that
// never comes up neither blocks the caller nor wedges Close.
func TestTCPWarmPreDials(t *testing.T) {
	a, _, _, cb1, _ := newTCPPair(t)
	a.Warm()
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		_, warmed := a.conns[a.addrs[1]]
		a.mu.Unlock()
		if warmed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Warm never established the peer connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The warmed connection must be the one Send uses (no re-dial, frames
	// flow immediately).
	if err := a.Send(Message{From: 0, To: 1, Payload: "warm"}); err != nil {
		t.Fatal(err)
	}
	if got := cb1.waitFor(t, 1, 2*time.Second); got[0].Payload != "warm" {
		t.Fatalf("payload %v over warmed connection", got[0].Payload)
	}

	// A fleet member that never starts: Warm returns immediately and the
	// background dial gives up quietly once the transport closes.
	ports := freeAddrs(t, 2)
	lone := NewTCP([]string{ports[0], ports[1]})
	lone.DialBudget = 200 * time.Millisecond
	if err := lone.Bind(0, (&collector{}).recv); err != nil {
		t.Fatal(err)
	}
	if err := lone.Open(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	lone.Warm()
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("Warm blocked the caller for %v", elapsed)
	}
	if err := lone.Close(); err != nil {
		t.Fatal(err)
	}
}
