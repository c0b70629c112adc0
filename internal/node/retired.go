package node

import (
	"sync/atomic"

	"validity/internal/obs"
)

// Retired-query compaction: a long-running fleet answers an unbounded
// stream of queries, so per-query state must not accumulate forever.
// Retirement (timer.go) already drops the protocol instance; one grace
// window later the engine compacts the rest — the O(hosts) counter arrays
// and the demux map entry — down to one fixed-size summary on a bounded
// ring. The ring doubles as the recycling guard: a straggler frame for a
// compacted query id is recognized and dropped instead of re-instantiating
// the query through the factory. Only once an id has fallen off the ring
// (retiredRingCap retirements later) is it forgotten entirely; by then any
// frame for it is ancient beyond every grace window the engine grants.

// retiredRingCap bounds how many retired-query summaries the engine keeps.
const retiredRingCap = 256

// RetiredStats is the compact §6.3 summary kept for a retired query after
// its per-host state is dropped: the counters of Stats with the per-host
// computation array collapsed to its maximum (the cost measure the paper
// reports).
type RetiredStats struct {
	Query             QueryID
	MessagesSent      int64
	BytesOnWire       int64
	MessagesDelivered int64
	MessagesDropped   int64
	MaxComputation    int64
	TimeCost          int
}

// retiredRing is a fixed-capacity circular buffer of summaries with an id
// index for O(1) recycling checks. All access is under Runtime.mu.
type retiredRing struct {
	buf  []RetiredStats
	next int
	full bool
	byID map[QueryID]int
}

func (r *retiredRing) push(s RetiredStats) {
	if r.buf == nil {
		r.buf = make([]RetiredStats, retiredRingCap)
		r.byID = make(map[QueryID]int, retiredRingCap)
	}
	if r.full {
		delete(r.byID, r.buf[r.next].Query)
	}
	r.buf[r.next] = s
	r.byID[s.Query] = r.next
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

func (r *retiredRing) seen(id QueryID) bool {
	_, ok := r.byID[id]
	return ok
}

func (r *retiredRing) get(id QueryID) (RetiredStats, bool) {
	i, ok := r.byID[id]
	if !ok {
		return RetiredStats{}, false
	}
	return r.buf[i], true
}

// list returns the summaries oldest-first.
func (r *retiredRing) list() []RetiredStats {
	if r.buf == nil {
		return nil
	}
	var out []RetiredStats
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// stats is the summary as a Stats, its per-host array nil.
func (s RetiredStats) stats() Stats {
	return Stats{
		MessagesSent:      s.MessagesSent,
		BytesOnWire:       s.BytesOnWire,
		MessagesDelivered: s.MessagesDelivered,
		MessagesDropped:   s.MessagesDropped,
		TimeCost:          s.TimeCost,
	}
}

// compact drops a retired query's remaining state: its counters fold into
// the runtime-wide retired totals (so Stats keeps reporting the fleet's
// full history) and a summary lands on the ring, then the demux map entry
// is deleted. Fired from the timer heap one grace window after retirement.
//
// The counters are read under rt.mu, in the same critical section that
// drops the demux entry: straggler increments for a retired query go
// through dropRetired, which takes the same lock, so every such increment
// either lands before the read (and is folded) or observes the entry gone
// (and lands on the folded totals directly) — none can fall between the
// read and the delete and be lost.
func (rt *Runtime) compact(qs *queryState) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e := rt.queries[qs.id]
	if e == nil || e.qs != qs {
		return // already compacted
	}
	delete(rt.queries, qs.id)
	sum := RetiredStats{
		Query:             qs.id,
		MessagesSent:      qs.sent.Load(),
		BytesOnWire:       qs.bytes.Load(),
		MessagesDelivered: qs.delivered.Load(),
		MessagesDropped:   qs.dropped.Load(),
		TimeCost:          int(qs.timeCost.Load()),
	}
	for h := range qs.processed {
		c := atomic.LoadInt64(&qs.processed[h])
		rt.retiredTotal.PerHostProcessed[h] += c
		sum.MaxComputation = max(sum.MaxComputation, c)
	}
	mergeStats(&rt.retiredTotal, sum.stats())
	rt.retired.push(sum)
	rt.met.compacted.Inc()
	if rt.trace != nil {
		rt.trace.Record(int64(qs.id), obs.EvCompacted, -1, qs.tickNow(rt), "")
	}
}

// dropRetired counts one frame dropped at a retired query. It serializes
// with compact through rt.mu: while the query's demux entry survives, the
// increment goes to the query's own counter (the compaction snapshot will
// fold it); once the entry is gone, it goes straight into the folded
// totals and the ring summary. An increment racing the compaction instant
// is therefore counted exactly once — the pre-fix window where a counter
// bump could land after the snapshot but before the fold no longer
// exists.
func (rt *Runtime) dropRetired(qs *queryState) {
	rt.met.dropRetired.Inc()
	rt.traceDrop(qs, -1, 0, dropRetired)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if e := rt.queries[qs.id]; e != nil && e.qs == qs {
		qs.dropped.Add(1)
		return
	}
	rt.retiredTotal.MessagesDropped++
	rt.retired.bump(qs.id)
}

// bump adds one dropped message to id's ring summary, if it still holds
// one. Called under Runtime.mu.
func (r *retiredRing) bump(id QueryID) {
	if i, ok := r.byID[id]; ok {
		r.buf[i].MessagesDropped++
	}
}

// RetiredStats returns the summaries of recently retired-and-compacted
// queries, oldest first. The ring keeps the last retiredRingCap of them;
// queries still live (or still inside their post-retirement grace window)
// are readable through QueryStats instead.
func (rt *Runtime) RetiredStats() []RetiredStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.retired.list()
}
