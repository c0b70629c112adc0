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
type coinSource struct{ pcg randv2.PCG }

func (c *coinSource) Uint64() uint64 { return c.pcg.Uint64() }
func (c *coinSource) Int63() int64   { return int64(c.pcg.Uint64() >> 1) }

// Seed implements rand.Source; nothing reseeds a coin stream.
func (c *coinSource) Seed(seed int64) { c.pcg.Seed(uint64(seed), 0) }

// NewCoins derives host h's coin stream from (seed, h) alone — the one
// derivation behind every Backend.Rand. A host's coins therefore depend
// neither on which hosts drew before it nor on where it runs: the event
// loop, a single runtime and a fleet of processes sharding one topology
// all toss identical coins for a host under one seed (for a query of the
// live engine, seed is node.QuerySeed of the fleet seed and the query id).
func NewCoins(seed int64, h graph.HostID) *rand.Rand {
	c := new(coinSource)
	c.pcg.Seed(uint64(seed), uint64(h))
	return rand.New(c)
}
