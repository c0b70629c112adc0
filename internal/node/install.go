package node

import (
	"validity/internal/protocol"
	"validity/internal/sim"
)

// BuildInstance materializes p's handlers for the hosts rt serves, and for
// those only — the standard QueryFactory body. seed (QuerySeed of the
// fleet's seed and the query id) is what the query's backend derives each
// host's coin stream from. A query's protocol state on a process is
// O(local hosts): p is validated against G once, and nothing is built for
// a host another process serves, so on a process that does not serve h_q
// the instance's Protocol.Result() reports no result. p must be fresh for
// each query: it is built in a retired query's slab when rt holds one, and
// a p with a Reuse method takes over the retired protocol's host state.
func BuildInstance(rt *Runtime, p protocol.Protocol, seed int64) (*QueryInstance, error) {
	s := rt.takeSlab()
	if r, ok := p.(reuser); ok {
		r.Reuse(s.proto)
	}
	if err := p.Init(rt.g); err != nil {
		return nil, err
	}
	s.proto = p
	for _, h := range rt.localHosts {
		s.handlers[h] = p.NewHost(h)
	}
	return &QueryInstance{Protocol: p, Handlers: s.handlers, Seed: seed, Deadline: p.Deadline(), slab: s}, nil
}

// reuser is a protocol that can take over a retired protocol's per-host
// state before its Init, and builds fresh when old is not its kind.
type reuser interface{ Reuse(old protocol.Protocol) }

// A slab is the storage of one query on a runtime, sized to G: handlers,
// coin streams, Start flags (started[h] is only touched on h's shard
// worker), and the protocol whose per-host state a reuser takes over. The
// query's last local itemRetire — after every local host's last callback
// for it — puts it on the free list the next BuildInstance takes it from.
type slab struct {
	handlers []sim.Handler
	coins    []sim.Coins
	started  []bool
	proto    protocol.Protocol
}

// slabCap bounds the free list. A slab waits there only from one query's
// retirement to the next build, so queries issued one or a few at a time
// keep as many; more retiring at once than are built is a burst ending,
// whose storage the garbage collector should have back.
const slabCap = 4

// takeSlab takes a slab off the free list, or makes a fresh one.
func (rt *Runtime) takeSlab() *slab {
	select {
	case s := <-rt.slabs:
		return s
	default:
		n := rt.g.Len()
		return &slab{handlers: make([]sim.Handler, n), coins: make([]sim.Coins, n), started: make([]bool, n)}
	}
}

// recycle puts qs's slab on the free list unless it is full; the caller is
// qs's last local itemRetire.
func (rt *Runtime) recycle(qs *queryState) {
	clear(qs.started)
	select {
	case rt.slabs <- qs.slab:
	default:
	}
}
