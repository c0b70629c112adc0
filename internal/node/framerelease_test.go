package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/wire"
)

// countedFrame is a payload that holds one reference, like a WILDFIRE
// frame's snapshot, and books every Release of it. A frame a handler mints
// has Decoded false; the copy the wire codec makes of it on the receiving
// process has Decoded true and a reference of its own.
type countedFrame struct {
	ID      uint64
	Decoded bool
}

func (f countedFrame) Release() { frameBook.release(f) }

// frameBook is the ledger of every countedFrame minted, decoded and
// released.
var frameBook releaseBook

type releaseBook struct {
	mu       sync.Mutex
	next     uint64
	minted   map[uint64]bool // ID → sent to a host served by another runtime
	decoded  map[uint64]int
	released map[countedFrame]int
}

func (b *releaseBook) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.minted = make(map[uint64]bool)
	b.decoded = make(map[uint64]int)
	b.released = make(map[countedFrame]int)
}

func (b *releaseBook) mint(remote bool) countedFrame {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.next++
	b.minted[b.next] = remote
	return countedFrame{ID: b.next}
}

func (b *releaseBook) decode(id uint64) countedFrame {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decoded[id]++
	return countedFrame{ID: id, Decoded: true}
}

func (b *releaseBook) release(f countedFrame) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.released[f]++
}

// settled reports whether every frame minted and every copy decoded has
// been released, and if not, the first that has not — or that was
// released more than once, which is final.
func (b *releaseBook) settled() (ok bool, why string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for f, n := range b.released {
		if n > 1 {
			return false, fmt.Sprintf("frame %+v released %d times", f, n)
		}
	}
	for id, remote := range b.minted {
		if b.released[countedFrame{ID: id}] != 1 {
			return false, fmt.Sprintf("frame %d (remote %t) minted and never released", id, remote)
		}
		if !remote && b.decoded[id] > 0 {
			return false, fmt.Sprintf("frame %d to a local host went through the codec", id)
		}
	}
	for id, n := range b.decoded {
		if n != 1 || b.released[countedFrame{ID: id, Decoded: true}] != 1 {
			return false, fmt.Sprintf("frame %d decoded %d times, its copy released %d times",
				id, n, b.released[countedFrame{ID: id, Decoded: true}])
		}
	}
	return true, ""
}

func (b *releaseBook) counts() (minted, decoded int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.minted), len(b.decoded)
}

const tagCountedFrame = wire.TagReservedBase + 1

func init() {
	wire.RegisterTagger(func(payload any) (uint8, bool) {
		if _, ok := payload.(countedFrame); ok {
			return tagCountedFrame, true
		}
		return 0, false
	})
	wire.RegisterPayload(tagCountedFrame, wire.PayloadCodec{
		Name: "test-counted",
		Append: func(buf []byte, payload any) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(buf, payload.(countedFrame).ID), nil
		},
		Size: func(any) (int, error) { return 8, nil },
		Decode: func(body []byte) (any, error) {
			if len(body) != 8 {
				return nil, fmt.Errorf("counted frame of %d bytes", len(body))
			}
			return frameBook.decode(binary.LittleEndian.Uint64(body)), nil
		},
	})
}

// countingFlood floods counted frames, one per neighbor and hop: h_q at
// Start, every other host on its first frame, and every host that took
// part once more two ticks later, when the timeline has moved on. Receive
// releases its frame, as WILDFIRE's does.
type countingFlood struct {
	hq     bool
	fired  bool
	remote func(to graph.HostID) bool
}

func (f *countingFlood) Start(ctx *sim.Context) {
	if f.hq {
		f.flood(ctx, graph.None)
	}
}

func (f *countingFlood) Receive(ctx *sim.Context, msg sim.Message) {
	sim.Release(msg.Payload)
	if !f.fired {
		f.flood(ctx, msg.From)
	}
}

func (f *countingFlood) Timer(ctx *sim.Context, _ int) { f.send(ctx, graph.None) }

func (f *countingFlood) flood(ctx *sim.Context, skip graph.HostID) {
	f.fired = true
	f.send(ctx, skip)
	ctx.SetTimer(ctx.Now()+2, 1)
}

func (f *countingFlood) send(ctx *sim.Context, skip graph.HostID) {
	for _, n := range ctx.Neighbors() {
		if n != skip {
			ctx.Send(n, frameBook.mint(f.remote(n)))
		}
	}
}

// releaseChurn has hosts leave for good at tick 0, leave and come back,
// and join late, so frames meet dead hosts on the way.
var releaseChurn = churn.Timeline{
	{H: 3, T: 0},
	{H: 5, T: 1}, {H: 5, T: 3, Kind: churn.Join},
	{H: 8, T: 2, Kind: churn.Join},
	{H: 11, T: 1},
	{H: 14, T: 2}, {H: 14, T: 4, Kind: churn.Join},
	{H: 17, T: 3, Kind: churn.Join},
}

// failFirst refuses the first counted frame it is asked to send.
type failFirst struct {
	transport.Transport
	failed atomic.Bool
}

func (f *failFirst) Send(m transport.Message) error {
	if _, ok := m.Payload.(countedFrame); ok && f.failed.CompareAndSwap(false, true) {
		return errors.New("refused")
	}
	return f.Transport.Send(m)
}

// TestEveryFrameReleasedOnce holds the runtime to the payload contract:
// every frame a handler sends has its reference ended exactly once —
// by a Receive, or by the runtime where it drops the frame (a dead host,
// a retired or unknown query), suppresses it (a departed sender), sees the
// transport refuse it, or sees the transport serialize it; and the copy a
// receiving process decodes is released once in turn. It runs a churned
// flood on the chan transport, on a three-runtime TCP fleet, and on chan
// with one Send refused, and checks the books once the query is compacted
// everywhere.
func TestEveryFrameReleasedOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parts int
		fail  bool
	}{
		{"chan", 1, false},
		{"tcp", 3, false},
		{"send-error", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frameBook.reset()
			const n, hop = 20, raceSlowdown * 5 * time.Millisecond
			g := topology.NewRandom(n, 4, 23)
			part := func(h graph.HostID) int { return int(h) * tc.parts / n }
			var addrs []string
			if tc.parts > 1 {
				ports := freeAddrs(t, tc.parts)
				addrs = make([]string, n)
				for h := range addrs {
					addrs[h] = ports[part(graph.HostID(h))]
				}
			}
			rts := make([]*Runtime, tc.parts)
			var refuser *failFirst
			for p := range rts {
				var tr transport.Transport
				var local []graph.HostID
				if tc.parts > 1 {
					tr = transport.NewTCP(addrs)
					for h := 0; h < n; h++ {
						if part(graph.HostID(h)) == p {
							local = append(local, graph.HostID(h))
						}
					}
				} else {
					tr = transport.NewChannel(n, hop/2)
				}
				if tc.fail {
					refuser = &failFirst{Transport: tr}
					tr = refuser
				}
				rt, err := New(Config{Graph: g, Transport: tr, Hop: hop, Local: local, Obs: obs.NewRegistry()})
				if err != nil {
					t.Fatal(err)
				}
				self := p
				rt.SetQueryFactory(func(QueryID) (*QueryInstance, error) {
					hs := make([]sim.Handler, n)
					for h := range hs {
						if rt.Local(graph.HostID(h)) {
							hs[h] = &countingFlood{
								hq:     h == 0,
								remote: func(to graph.HostID) bool { return part(to) != self },
							}
						}
					}
					return &QueryInstance{Handlers: hs, Deadline: 12, Churn: releaseChurn}, nil
				})
				rts[p] = rt
			}
			for p := len(rts) - 1; p >= 0; p-- {
				if err := rts[p].Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rts[p].Stop)
			}
			if _, err := rts[0].StartQuery(1); err != nil {
				t.Fatal(err)
			}
			time.Sleep(12 * hop) // the flood and its second wave are over

			// A departed sender says nothing: host 3 left at tick 0.
			dead := rts[part(3)]
			qs := dead.lookupQuery(1)
			if qs == nil || !qs.hostDead(3) {
				t.Fatal("host 3 is not dead on query 1 where it is served")
			}
			if err := dead.Do(3, func() {
				qs.be.Send(3, g.Neighbors(3)[0], frameBook.mint(part(g.Neighbors(3)[0]) != part(3)), 1)
			}); err != nil {
				t.Fatal(err)
			}

			// Answered and retired: a frame still arriving is dropped at the
			// demux; once compacted, so is one for the forgotten id, and one
			// for an id no query may have.
			chanTr := rts[0].tr
			for _, rt := range rts {
				if qs := rt.lookupQuery(1); qs != nil {
					rt.release(qs, "answered")
				}
			}
			if tc.parts == 1 {
				for _, q := range []QueryID{1, 0} {
					if err := chanTr.Send(transport.Message{From: 1, To: 0, Query: q, Payload: frameBook.mint(false)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			time.Sleep(2 * hop)
			for _, rt := range rts {
				rt.fireTimer(&timerEntry{kind: tkCompact, id: 1})
			}
			if tc.parts == 1 {
				if err := chanTr.Send(transport.Message{From: 1, To: 0, Query: 1, Payload: frameBook.mint(false)}); err != nil {
					t.Fatal(err)
				}
			}
			var why string
			if !waitUntil(20*hop, func() (ok bool) { ok, why = frameBook.settled(); return ok }) {
				t.Fatal(why)
			}
			minted, decoded := frameBook.counts()
			t.Logf("%d frames minted, %d decoded off the wire", minted, decoded)
			if tc.parts > 1 && decoded == 0 {
				t.Fatal("no frame crossed the wire")
			}
			if tc.fail && !refuser.failed.Load() {
				t.Fatal("no Send was refused")
			}
			var deadDrops int64
			for _, rt := range rts {
				deadDrops += rt.met.dropQueryDead.Value()
			}
			if deadDrops == 0 {
				t.Fatal("no frame met a dead host")
			}
		})
	}
}
