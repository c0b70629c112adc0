package sim

import (
	"math/rand"
	randv2 "math/rand/v2"

	"validity/internal/graph"
)

// coinSource is one host's coin stream: the standard library's 16-byte PCG
// behind the math/rand Source64 interface the sketch code draws through. A
// backend keeps one per host that tosses coins, so the source's size is the
// per-host footprint of a query — math/rand's own seeded source is ~5 KB.
type coinSource struct {
	pcg randv2.PCG
	h   uint64 // the host, PCG's second seed word
}

func (c *coinSource) Uint64() uint64 { return c.pcg.Uint64() }
func (c *coinSource) Int63() int64   { return int64(c.pcg.Uint64() >> 1) }

// Seed implements rand.Source: the (seed, h) stream of the source's host.
func (c *coinSource) Seed(seed int64) { c.pcg.Seed(uint64(seed), c.h) }

// Coins is one host's coin stream for one query. It is a *rand.Rand — what
// Backend.Rand hands out — over its own coinSource. The Rand points into
// the Coins, so a Coins must not be copied once seeded.
type Coins struct {
	*rand.Rand
	src coinSource
}

// NewCoins derives host h's coin stream from (seed, h) alone — the one
// derivation behind every Backend.Rand. A host's coins therefore depend
// neither on which hosts drew before it nor on where it runs: the event
// loop, a single runtime and a fleet of processes sharding one topology
// all toss identical coins for a host under one seed (for a query of the
// live engine, seed is node.QuerySeed of the fleet seed and the query id).
func NewCoins(seed int64, h graph.HostID) *Coins {
	c := new(Coins)
	c.Reseed(seed, h)
	return c
}

// Reseed restarts c in place as NewCoins(seed, h) would build it, whatever
// c drew before: the same PCG derivation, and Read's buffer emptied with
// it. A zero Coins is ready for Reseed, so the live engine keeps a query's
// streams in one slice and reseeds each when its host starts.
func (c *Coins) Reseed(seed int64, h graph.HostID) {
	if c.Rand == nil {
		c.Rand = rand.New(&c.src)
	}
	c.src.h = uint64(h)
	c.Seed(seed)
}
