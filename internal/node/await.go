package node

import (
	"time"

	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/sim"
)

// allLocal reports whether this runtime serves every host of G. Then every
// send, delivery, drop and armed timer of a query is a counter in this
// process (queryState.inflight) and a read needs no timing at all.
func (rt *Runtime) allLocal() bool { return len(rt.localHosts) == rt.g.Len() }

// ResultFloor returns the earliest wall-clock wait after which an early
// result read of a query with the given deadline (in δ ticks) is sound on
// this runtime.
//
// When every host of G is served locally there is none: the read is
// counted, not timed — AwaitQueryResult answers when nothing of the query
// is outstanding anywhere, which is exact however long or short that took
// — so the floor is zero. When some hosts are served by other processes,
// remote progress is invisible to local counters — a worker still
// materializing its instances looks exactly like a converged fleet — so
// only the protocol's own deadline makes the local partial final: a
// WILDFIRE host at distance l stops combining at (2D̂−l+1)δ, hence h_q
// accepts nothing after 2D̂δ on the query clock and its partial is frozen
// once the deadline (plus a processing margin) has passed. The adaptive
// saving on a sharded fleet is the scheduling slack past the deadline, not
// the deadline itself.
//
// The sharded floor is the *unassisted* bound. With the cross-process
// quiescence control plane enabled (Config.Quiesce + Roster, quiesce.go),
// AwaitQueryResult additionally holds affirmative evidence — every peer
// process claiming a stable quiet epoch — and may then read after one
// broadcast sweep; ResultFloor itself stays the worst case so the
// bracket's cap never loosens.
func (rt *Runtime) ResultFloor(deadline sim.Time) time.Duration {
	if rt.allLocal() {
		return 0
	}
	return time.Duration(deadline+2) * rt.hop
}

// queryActivity returns a monotone counter of every event this runtime
// has locally observed for query id — sends, deliveries, and drops. The
// counter goes quiet exactly when the query's local traffic does, which
// is the signal AwaitQueryResult polls for.
func (rt *Runtime) queryActivity(id QueryID) (int64, bool) {
	qs := rt.lookupQuery(id)
	if qs == nil {
		return 0, false
	}
	return qs.sent.Load() + qs.delivered.Load() + qs.dropped.Load(), true
}

// AwaitBracket derives the standard adaptive-read parameters for a query
// with termination time `deadline` (2·D̂, in δ ticks): the sound floor
// for this runtime (ResultFloor), a quiescence settle window of a
// quarter deadline clamped to at least two hops (read only by a sharded
// runtime's timed loop), and the hard cap — the full wall-clock budget of
// the old sleep-out-the-deadline path (the protocol deadline plus slack
// for scheduler noise and the last hop's flush). One derivation shared by
// the daemon's one-shot reads and the streaming subsystem's per-window
// reads keeps their latencies comparable.
func (rt *Runtime) AwaitBracket(deadline sim.Time) (floor, settle, hardCap time.Duration) {
	floor = rt.ResultFloor(deadline)
	settle = time.Duration(deadline) * rt.hop / 4
	if settle < 2*rt.hop {
		settle = 2 * rt.hop
	}
	hardCap = time.Duration(deadline)*rt.hop + 10*rt.hop + 100*time.Millisecond
	return floor, settle, hardCap
}

// AwaitQueryResult reads query id's declared result at local host h as
// soon as the query is over, instead of sleeping out the full wall-clock
// deadline. What "over" means depends on what this process can see.
//
// On a runtime serving every host of G the read is counted (awaitCounted):
// it blocks until the query has nothing outstanding — no frame in flight,
// no protocol timer armed, no Start queued — which is the protocol's own
// termination and independent of δ, then reads. floor is still honoured
// (no read before it; floor ≥ hardCap shuts the early path altogether),
// settle is ignored, and a query that never goes idle, or goes idle with
// nothing declared, is read at hardCap.
//
// On a sharded runtime remote work is invisible and the read is timed:
//
//   - floor is the minimum wait before any early read — ResultFloor
//     derives the sound value, the full protocol deadline;
//   - settle is the silence window: once the query's locally observed
//     traffic (sends, deliveries, drops) has been quiet for settle after
//     the floor, the protocol state is treated as final and the result is
//     read. WILDFIRE refloods on every partial change (§5.1), so local
//     silence means nothing en route through this shard is still mutating
//     h's partial;
//   - hardCap is the hard deadline: at hardCap the result is read
//     unconditionally, exactly as the old sleep-out-the-deadline path
//     did. Convergence can only ever shorten the wait, never loosen the
//     §3.1 deadline.
//
// With the quiescence control plane enabled the timed loop has a second
// early path that undercuts the sharded floor: once every peer process of
// the roster reports a stable quiet epoch (remoteQuiet) and the local
// settle window has passed, the read happens after one broadcast sweep
// (quiesceFloor) — the peers' affirmative claims substitute for the
// remote visibility the sharded floor otherwise has to assume away.
//
// The result read itself runs through Runtime.Do on h's own goroutine, so
// it can never race in-flight handler callbacks. The returned latency-
// relevant guarantee is the point: one-shot and per-window answer times
// reflect actual convergence, not the worst-case bound.
//
// The read that returns — early or at the cap — is terminal: in the paper
// the query is over once h_q declares, so the answer is frozen into the
// query and its protocol state released on the spot, here and (Done) on
// every worker process of the roster. QueryResult, QueryStats and a second
// AwaitQueryResult keep answering from the frozen value and the counters
// until compaction, one grace later.
func (rt *Runtime) AwaitQueryResult(id QueryID, h graph.HostID, floor, settle, hardCap time.Duration) (float64, bool, error) {
	qs := rt.lookupQuery(id)
	if qs != nil && qs.answer.Load() != nil {
		return rt.QueryResult(id, h) // answered before: the frozen value
	}
	if rt.allLocal() {
		return rt.awaitCounted(qs, id, h, floor, hardCap)
	}
	start := time.Now()
	hard := start.Add(hardCap)
	if settle <= 0 {
		settle = rt.hop
	}
	basePoll := rt.hop / 2
	if basePoll <= 0 {
		basePoll = time.Millisecond
	}
	poll := basePoll
	// Geometric backoff once an early read is in reach: half-hop polling
	// exists to catch the settle edge promptly, but a long quiet wait for
	// the floor (or a query that never settles before the cap) should not
	// spin at hop/2 for seconds. The ceiling keeps half the settle
	// window's resolution, so the edge is still seen on time.
	maxPoll := settle / 2
	if maxPoll < basePoll {
		maxPoll = basePoll
	}
	// The quiesce fast path's own floor: never below the caller's floor
	// when that is already shorter (streams pass lag-adjusted floors).
	qFloor := rt.quiesceFloor(qs)
	if qFloor >= 0 && floor < qFloor {
		qFloor = floor
	}
	lastAct := int64(-1)
	quietSince := start
	// One timer serves every poll step: Reset re-arms it (Go 1.23 timers
	// drop an unread expiry on Reset), where a time.After per step would
	// allocate a timer each.
	tick := time.NewTimer(hardCap)
	defer tick.Stop()
	for {
		now := time.Now()
		if !now.Before(hard) {
			break
		}
		if act, known := rt.queryActivity(id); known && act != lastAct {
			lastAct = act
			quietSince = now
			poll = basePoll
		}
		// Early read: some traffic observed, silent for the whole settle
		// window, and past either the sound floor or — with every peer
		// process affirmatively quiet — the quiesce floor.
		if lastAct > 0 && now.Sub(quietSince) >= settle {
			settled := now.Sub(start) >= floor
			quiesced := !settled && qFloor >= 0 && now.Sub(start) >= qFloor && rt.remoteQuiet(qs)
			if settled || quiesced {
				v, ok, err := rt.QueryResult(id, h)
				if err == nil && ok {
					detail := "settle"
					if quiesced {
						detail = "quiesce"
					}
					rt.earlyRead(qs, id, v, detail)
					return v, true, nil
				}
				// No declared result yet (or a transient read failure):
				// keep polling until the hard cap.
			}
		}
		if now.Sub(start) >= floor || (qFloor >= 0 && now.Sub(start) >= qFloor) {
			if poll < maxPoll {
				poll *= 2
				if poll > maxPoll {
					poll = maxPoll
				}
			}
		}
		wait := poll
		if rem := hard.Sub(time.Now()); rem < wait {
			wait = rem
		}
		if wait > 0 {
			tick.Reset(wait)
			select {
			case <-tick.C:
			case <-rt.quit:
				return rt.QueryResult(id, h)
			}
		}
	}
	return rt.capRead(id, h)
}

// awaitCounted is AwaitQueryResult on a runtime serving every host: it
// answers when qs.idle closes — nothing of the query outstanding in the
// only process there is — with hardCap as the backstop.
//
// Scheduled membership transitions deliberately do not hold the read
// (ROADMAP item C asked for "no membership transition pending"): an answer
// declared at t is inside H_C/H_U of any longer interval, a host joining a
// silent WILDFIRE network produces no traffic, and waiting out every join
// ≤ 2·D̂ would make a churned read slower than the timed one it replaces.
func (rt *Runtime) awaitCounted(qs *queryState, id QueryID, h graph.HostID, floor, hardCap time.Duration) (float64, bool, error) {
	if qs == nil {
		// Only StartQuery instantiates on this runtime — no frame arrives
		// from elsewhere — so a query unknown now has nothing to wait for.
		return rt.QueryResult(id, h)
	}
	// One timer first waits out the floor, then is re-armed for what is
	// left of the cap.
	start := time.Now()
	hard := time.NewTimer(hardCap)
	defer hard.Stop()
	idle := qs.idle
	switch {
	case floor >= hardCap:
		idle = nil // the early path is shut: read at the cap
	case floor > 0:
		hard.Reset(floor)
		select {
		case <-hard.C:
		case <-rt.quit:
			return rt.QueryResult(id, h)
		}
		hard.Reset(hardCap - time.Since(start))
	}
	for {
		select {
		case <-idle:
			if v, ok, err := rt.QueryResult(id, h); err == nil && ok {
				rt.earlyRead(qs, id, v, "counted")
				return v, true, nil
			}
			idle = nil // idle with nothing declared: only the cap is left
		case <-hard.C:
			return rt.capRead(id, h)
		case <-rt.quit:
			return rt.QueryResult(id, h)
		}
	}
}

// earlyRead books a declared result read before the hard cap — detail names
// the path that got there — and makes it terminal.
func (rt *Runtime) earlyRead(qs *queryState, id QueryID, v float64, detail string) {
	rt.met.earlyReads.Inc()
	if rt.trace != nil && qs != nil {
		rt.trace.Record(int64(id), obs.EvEarlyRead, -1, qs.tickNow(rt), detail)
	}
	rt.answered(id, v, true)
}

// capRead is the read at the hard cap: unconditional and terminal.
func (rt *Runtime) capRead(id QueryID, h graph.HostID) (float64, bool, error) {
	rt.met.deadlineReads.Inc()
	v, ok, err := rt.QueryResult(id, h)
	if err == nil {
		rt.answered(id, v, ok)
	}
	return v, ok, err
}

// answered makes a read of query id terminal: the answer is frozen into
// the query before its protocol state goes, so no reader ever finds
// neither, and the worker processes are told the query is over.
func (rt *Runtime) answered(id QueryID, v float64, ok bool) {
	qs := rt.lookupQuery(id)
	if qs == nil || !qs.answer.CompareAndSwap(nil, &answer{v, ok}) {
		return
	}
	rt.release(qs, "answered")
	rt.announceDone(qs)
}
