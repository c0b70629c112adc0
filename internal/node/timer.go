package node

import (
	"container/heap"
	"time"

	"validity/internal/graph"
	"validity/internal/obs"
)

// The runtime keeps a single timer heap drained by one goroutine instead
// of a goroutine per armed timer: a 10K-host fleet multiplexing many
// queries arms a protocol flush timer per (host, query, round), and
// spawning a goroutine for each would churn the scheduler for no benefit.
// The heap orders entries by wall-clock firing time with a sequence-number
// tiebreak (FIFO among equal times, matching the event loop's
// determinism), and covers protocol timers, scheduled per-query
// membership transitions — departures and joins — and query-state
// retirement and compaction alike.

type timerKind uint8

const (
	// tkTimer fires a protocol timer callback on a host goroutine.
	tkTimer timerKind = iota
	// tkQueryDead executes a departure on one query's membership timeline:
	// the host goes silent for that query and that query only.
	tkQueryDead
	// tkQueryJoin executes an arrival on one query's membership timeline:
	// the host's frames, timers, and sends resume for that query, and a
	// late joiner's handler is started lazily like any first contact.
	tkQueryJoin
	// tkRetire retires a query's state after its deadline safely passed.
	tkRetire
	// tkCompact folds a retired query's counters into the bounded ring of
	// summaries and drops its O(hosts) state.
	tkCompact
	// tkFunc runs an arbitrary scheduled closure (Runtime.After): the
	// streaming subsystem opens its windows through these, so window
	// cadence rides the same heap as every protocol timer.
	tkFunc
	// tkQuiesce runs one cross-process quiescence check for a query
	// (quiesce.go): compare the activity counter, announce or withdraw a
	// quiet claim, and re-arm.
	tkQuiesce
)

// timerEntry is one scheduled firing. Only a protocol timer (and a quiesce
// check) holds its query by pointer: it is part of the query's outstanding
// work and fires within the deadline. Membership transitions and the
// retire/compact backstop are armed up to 2·deadline + 2·grace ahead, long
// after an answered query was released, so they name it by id and resolve
// it when they fire — a miss means compacted, nothing left to do — and the
// heap never keeps a released query's state reachable.
type timerEntry struct {
	when  time.Time
	seq   uint64
	kind  timerKind
	h     graph.HostID
	qs    *queryState
	id    QueryID
	tag   int
	chain int
	fn    func()
}

// timerHeap is a min-heap of entries by (when, seq).
type timerHeap []*timerEntry

func (q timerHeap) Len() int { return len(q) }
func (q timerHeap) Less(i, j int) bool {
	if !q[i].when.Equal(q[j].when) {
		return q[i].when.Before(q[j].when)
	}
	return q[i].seq < q[j].seq
}
func (q timerHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *timerHeap) Push(x any)   { *q = append(*q, x.(*timerEntry)) }
func (q *timerHeap) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// scheduleEntry adds v to the heap, waking the timer loop only when it is
// the new earliest entry and so shortens the current sleep: the loop is
// already timed for the old head, which any later entry leaves in place.
// The heap's entries cycle through a freelist (the loop returns what it
// fired), so a steady stream of protocol timers allocates nothing.
func (rt *Runtime) scheduleEntry(v timerEntry) {
	rt.tmu.Lock()
	var e *timerEntry
	if n := len(rt.tfree); n > 0 {
		e, rt.tfree = rt.tfree[n-1], rt.tfree[:n-1]
	} else {
		e = new(timerEntry)
	}
	*e = v
	e.seq = rt.timerSeq
	rt.timerSeq++
	heap.Push(&rt.theap, e)
	head := rt.theap[0] == e
	rt.tmu.Unlock()
	if head {
		rt.wakeTimer()
	}
}

func (rt *Runtime) wakeTimer() {
	select {
	case rt.timerWake <- struct{}{}:
	default:
	}
}

// scheduleRetire arms the backstop: query-state retirement and, one more
// grace later, compaction, for a query no answer (release) and no Done
// retires first. Twice the deadline in wall clock plus grace leaves the
// issuing process ample room to read the result and straggler frames to
// be counted before the protocol state is dropped; the extra compaction
// window keeps the counters readable for late reporting before they
// shrink to a ring summary.
func (rt *Runtime) scheduleRetire(qs *queryState) {
	if qs.deadline <= 0 {
		return // deadline-less (handler-only) instances never retire
	}
	retireAt := time.Now().Add(2*time.Duration(qs.deadline)*rt.hop + retireGrace)
	rt.scheduleEntry(timerEntry{when: retireAt, kind: tkRetire, id: qs.id})
	rt.scheduleEntry(timerEntry{when: retireAt.Add(retireGrace), kind: tkCompact, id: qs.id})
}

// timerLoop drains the heap: it sleeps until the earliest entry is due,
// fires everything due, and re-sleeps. scheduleEntry wakes it early when a
// new entry preempts the current earliest. One timer is re-armed every
// pass, the batch of due entries reuses one slice, and the entries of the
// last batch go back on the freelist at the next lock.
func (rt *Runtime) timerLoop() {
	defer rt.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []*timerEntry
	for {
		rt.tmu.Lock()
		rt.tfree = append(rt.tfree, due...)
		due = due[:0]
		now := time.Now()
		for len(rt.theap) > 0 && !rt.theap[0].when.After(now) {
			due = append(due, heap.Pop(&rt.theap).(*timerEntry))
		}
		wait := time.Duration(-1)
		if len(rt.theap) > 0 {
			wait = rt.theap[0].when.Sub(now)
		}
		rt.tmu.Unlock()

		for _, e := range due {
			rt.fireTimer(e)
			*e = timerEntry{} // a fired entry must not pin its query while it waits for reuse
		}

		// An empty heap sleeps until the next push wakes it; the timer may
		// still be armed from an earlier pass, but nobody listens to it.
		var timeout <-chan time.Time
		if wait >= 0 {
			timer.Reset(wait)
			timeout = timer.C
		}
		select {
		case <-rt.quit:
			return
		case <-rt.timerWake:
		case <-timeout:
		}
	}
}

func (rt *Runtime) fireTimer(e *timerEntry) {
	qs := e.qs
	if qs == nil && e.id != 0 {
		if qs = rt.lookupQuery(e.id); qs == nil {
			return // compacted since the entry was armed
		}
	}
	switch e.kind {
	case tkTimer:
		// dispatch, not enqueue: the loop must not block behind one
		// congested shard while other shards' timers are due.
		rt.met.timersFired.Inc()
		rt.dispatch(e.h, item{kind: itemTimer, qs: qs, tag: e.tag, chain: e.chain})
	case tkQueryDead:
		qs.markDead(e.h)
		if rt.trace != nil {
			rt.trace.Record(int64(qs.id), obs.EvChurnLeave, int(e.h), qs.tickNow(rt), "")
		}
	case tkQueryJoin:
		// Un-suppress first, then hand the host's shard a Start item:
		// startHost is exactly-once per (query, host), so a rebirth (the
		// host lived before) reduces to the un-suppression alone, while a
		// late joiner's handler starts now — the same lazy
		// instantiate-on-first-contact path worker shards already run.
		qs.markAlive(e.h)
		if rt.trace != nil {
			rt.trace.Record(int64(qs.id), obs.EvChurnJoin, int(e.h), qs.tickNow(rt), "")
		}
		qs.inflight.Add(1)
		rt.dispatch(e.h, item{kind: itemStart, qs: qs})
	case tkRetire:
		rt.retire(qs, "timer")
	case tkCompact:
		rt.compact(qs)
	case tkFunc:
		// Own goroutine: the closure may block (StartQuery enqueues into
		// shard queues under back-pressure) and the loop must keep firing
		// other hosts' timers on time.
		go e.fn()
	case tkQuiesce:
		// Inline: the check is a few atomic loads, and any resulting
		// transport send — the only part that can block — is spawned on
		// its own goroutine inside.
		rt.quiesceCheck(qs)
	}
}

// After schedules fn to run d from now on the runtime's shared timer heap
// — the same heap that drives protocol timers, departures, and query
// retirement, so scheduled work needs no goroutine parked per deadline.
// fn runs on its own goroutine and may block; a runtime that stops before
// the entry fires drops it.
func (rt *Runtime) After(d time.Duration, fn func()) {
	rt.scheduleEntry(timerEntry{when: time.Now().Add(d), kind: tkFunc, fn: fn})
}
