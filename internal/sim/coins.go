package sim

import (
	"math/rand"
	randv2 "math/rand/v2"
	"sync"

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
// Backend.Rand hands out — over its own coinSource.
type Coins struct {
	*rand.Rand
	src coinSource
}

var coinPool = sync.Pool{New: func() any {
	c := new(Coins)
	c.Rand = rand.New(&c.src)
	return c
}}

// NewCoins derives host h's coin stream from (seed, h) alone — the one
// derivation behind every Backend.Rand. A host's coins therefore depend
// neither on which hosts drew before it nor on where it runs: the event
// loop, a single runtime and a fleet of processes sharding one topology
// all toss identical coins for a host under one seed (for a query of the
// live engine, seed is node.QuerySeed of the fleet seed and the query id).
// The stream comes from a pool, reseeded — Read's buffer included — so it
// draws what a fresh one does; the live engine releases it at retirement.
func NewCoins(seed int64, h graph.HostID) *Coins {
	c := coinPool.Get().(*Coins)
	c.src.h = uint64(h)
	c.Seed(seed)
	return c
}

// Release returns the stream to the pool; c must not be drawn from again.
func (c *Coins) Release() { coinPool.Put(c) }
