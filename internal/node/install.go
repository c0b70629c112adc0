package node

import (
	"math/rand"
	randv2 "math/rand/v2"

	"validity/internal/graph"
	"validity/internal/protocol"
	"validity/internal/sim"
)

// coinSource is a host's FM coin stream for one query: the standard
// library's 16-byte PCG behind the math/rand Source64 interface the sketch
// code draws through. A query instantiates one per local host, so the
// source's size is the per-host footprint of a query — math/rand's own
// seeded source is ~5 KB, pinned until the query retires.
type coinSource struct{ pcg randv2.PCG }

// newCoinSource derives host h's stream from (seed, h) alone — seed being
// the per-query seed (QuerySeed) — so a fleet of processes sharding one
// topology tosses identical coins for any given host no matter which
// process serves it, which keeps multi-process results reproducible.
func newCoinSource(seed int64, h graph.HostID) *coinSource {
	c := new(coinSource)
	c.pcg.Seed(uint64(seed), uint64(h))
	return c
}

func (c *coinSource) Uint64() uint64 { return c.pcg.Uint64() }
func (c *coinSource) Int63() int64   { return int64(c.pcg.Uint64() >> 1) }

// Seed implements rand.Source; nothing reseeds a coin stream.
func (c *coinSource) Seed(seed int64) { c.pcg.Seed(uint64(seed), 0) }

// BuildInstance materializes p's handlers for the hosts rt serves, and for
// those only, each wrapped with the host's own coin source derived from
// seed — the standard QueryFactory body. A query's protocol state on a
// process is O(local hosts): p is validated against G once, and nothing is
// built for a host another process serves, so on a process that does not
// serve h_q the instance's Protocol.Result() reports no result.
func BuildInstance(rt *Runtime, p protocol.Protocol, seed int64) (*QueryInstance, error) {
	if err := p.Init(rt.g); err != nil {
		return nil, err
	}
	hs := make([]sim.Handler, rt.g.Len())
	for _, h := range rt.localHosts {
		hs[h] = WithRand(p.NewHost(h), rand.New(newCoinSource(seed, h)))
	}
	return &QueryInstance{Protocol: p, Handlers: hs, Deadline: p.Deadline()}, nil
}
