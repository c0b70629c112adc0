package node

import (
	"fmt"
	"time"

	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/sim"
	"validity/internal/transport"
	"validity/internal/wire"
)

// Cross-process quiescence: the control plane that lets a sharded fleet
// answer before the full 2·D̂δ deadline.
//
// A runtime serving every host of G needs none of this: its read is
// counted (await.go) — every outstanding frame, timer and Start of a query
// is on one counter in the one process there is. A sharded runtime cannot
// count what another process still owes, so its read is timed, and
// ResultFloor's sharded case exists because local silence cannot witness
// remote progress — a worker still materializing its instances looks, in
// the issuer's counters, exactly like a converged fleet. This file turns
// that absence of evidence into positive evidence: every worker process
// watches each query's local activity counter (sends + deliveries +
// drops, the same monotone signal the timed read polls), and once the
// counter has held still past one broadcast sweep (D̂/2 ticks — the
// longest a partial change anywhere takes to reflood through this
// process) it sends a wire.Quiesce control frame to the query's issuing
// process. Later local activity bumps the claim's epoch and sends a busy
// re-announce, so a stale "quiet" is always superseded; the issuer only
// trusts the highest epoch seen per process. When every peer process of
// the roster reports a stable quiet epoch and the issuer's own settle
// window has passed, AwaitQueryResult reads the result early — under the
// paper's §3.1 model (δ bounds every hop's delay) a sweep of global
// silence means no frame is still in flight, so the partial at h_q is
// final. The unchanged hard cap remains the soundness backstop: a lost
// or never-sent announce only costs latency, never correctness.
//
// The plane also carries the one frame that flows the other way: when
// AwaitQueryResult answers a query, the issuer sends every peer process a
// Done, and a worker retires the query on it instead of holding its state
// (and re-arming its announce check) until the timer backstop. Only the
// process serving the query's origin is believed, a Done for a query the
// worker does not hold builds nothing, and a lost one just leaves the
// backstop to do the retiring.
//
// Quiesce frames are control plane, not protocol traffic: they bypass
// the per-query demux (no instance is ever built for them), are not
// charged to the query's §6.3 message/byte cost, and do not touch the
// activity counter they report on — announcing quiet must not make the
// fleet look busy.

// quiesceReport is the issuer-side record of one peer process's latest
// claim about one query.
type quiesceReport struct {
	epoch uint32
	act   int64
	quiet bool
}

// quiesceSilence is the announce threshold: one broadcast sweep (half
// the 2·D̂ deadline) of local stillness before a worker claims quiet.
func (rt *Runtime) quiesceSilence(deadline sim.Time) time.Duration {
	return time.Duration(deadline/2) * rt.hop
}

// quiesceInterval is the worker's check cadence: a quarter sweep, but
// never finer than one hop — the claim's resolution does not need to
// beat the signal's own timescale.
func (rt *Runtime) quiesceInterval(deadline sim.Time) time.Duration {
	iv := rt.quiesceSilence(deadline) / 4
	if iv < rt.hop {
		iv = rt.hop
	}
	return iv
}

// quiesceAnnouncer reports whether this runtime should announce
// quiescence for qs: the protocol is enabled, the query has a real
// deadline, and its issuing host lives in another process (the issuer
// never announces to itself — its own counters are already visible).
func (rt *Runtime) quiesceAnnouncer(qs *queryState) bool {
	if !rt.quiesce || qs.deadline <= 0 {
		return false
	}
	o := qs.origin
	return o >= 0 && int(o) < len(rt.local) && !rt.local[o]
}

// armQuiesce schedules the first announce check; called once from
// armClock with the clock-arm instant, so the silence window measures
// from the query's first local traffic.
func (rt *Runtime) armQuiesce(qs *queryState, t time.Time) {
	if !rt.quiesceAnnouncer(qs) {
		return
	}
	qs.qmu.Lock()
	qs.qActSince = t
	qs.qmu.Unlock()
	rt.scheduleEntry(timerEntry{
		when: t.Add(rt.quiesceInterval(qs.deadline)),
		kind: tkQuiesce,
		qs:   qs,
	})
}

// quiesceStep is one announce decision: compare the activity counter
// against the last check, update the silence window, and return the
// announce to send (nil for none). Separated from the timer callback so
// the epoch machine is unit-testable without a transport.
func (qs *queryState) quiesceStep(rt *Runtime, now time.Time) *wire.Quiesce {
	act := qs.sent.Load() + qs.delivered.Load() + qs.dropped.Load()
	qs.qmu.Lock()
	defer qs.qmu.Unlock()
	switch {
	case act != qs.qLastAct:
		qs.qLastAct = act
		qs.qActSince = now
		if qs.qAnnounced {
			// Activity resumed after a quiet claim: bump the epoch and
			// withdraw it, so the issuer's early-read path cannot act on
			// a claim events have overtaken.
			qs.qEpoch++
			qs.qAnnounced = false
			return &wire.Quiesce{Epoch: qs.qEpoch, Activity: act, Quiet: false}
		}
	case !qs.qAnnounced && act > 0 && now.Sub(qs.qActSince) >= rt.quiesceSilence(qs.deadline):
		qs.qAnnounced = true
		return &wire.Quiesce{Epoch: qs.qEpoch, Activity: act, Quiet: true}
	}
	return nil
}

// quiesceCheck is the tkQuiesce timer callback: run one step, ship any
// resulting announce, and re-arm. It must not block the timer loop —
// the step is a few atomic loads under a cold mutex, and the transport
// send (which may block on a congested peer) goes to its own goroutine.
// A retired query stops re-arming; its announce state is garbage with
// the rest of the query state.
func (rt *Runtime) quiesceCheck(qs *queryState) {
	if qs.retired.Load() {
		return
	}
	now := time.Now()
	if ann := qs.quiesceStep(rt, now); ann != nil {
		go rt.sendQuiesce(qs, qs.origin, *ann)
	}
	rt.scheduleEntry(timerEntry{
		when: now.Add(rt.quiesceInterval(qs.deadline)),
		kind: tkQuiesce,
		qs:   qs,
	})
}

// sendQuiesce ships one control frame to the process serving host to: an
// announce to the query's issuing process, or the issuer's Done to a
// worker. The From host only identifies this process to the receiver's
// roster (any local host works — the roster maps them all to this
// process); a dead or unroutable source just drops the frame, which
// costs the fast path or an early retirement, never correctness.
func (rt *Runtime) sendQuiesce(qs *queryState, to graph.HostID, q wire.Quiesce) {
	err := rt.tr.Send(transport.Message{
		From:    rt.localHosts[0],
		To:      to,
		Query:   qs.id,
		Payload: q,
	})
	if err != nil {
		return
	}
	rt.met.quiesceSent.Inc()
	if rt.trace != nil {
		detail := "announce-busy"
		switch {
		case q.Done:
			detail = "done"
		case q.Quiet:
			detail = "announce-quiet"
		}
		rt.trace.Record(int64(qs.id), obs.EvQuiesce, int(to), qs.tickNow(rt), detail)
	}
}

// announceDone tells every peer process that qs is answered. Sends may
// block on a congested or vanished peer, so they leave the caller — who
// has an answer to return — on their own goroutine.
func (rt *Runtime) announceDone(qs *queryState) {
	if !rt.quiesce {
		return
	}
	go func() {
		for _, h := range rt.remoteHosts {
			rt.sendQuiesce(qs, h, wire.Quiesce{Done: true})
		}
	}()
}

// handleDone is the worker side of a Done: release the query if this
// process holds it and the frame comes from the process serving the
// query's origin — the only one entitled to call it over.
func (rt *Runtime) handleDone(m transport.Message) {
	qs := rt.lookupQuery(m.Query)
	if qs == nil || !rt.quiesceAnnouncer(qs) || rt.procOf[m.From] != rt.procOf[qs.origin] {
		return
	}
	rt.release(qs, "done")
}

// handleQuiesce receives the plane's frames: recvFunc routes wire.Quiesce
// here before the per-query demux, so a hostile or stray control frame
// can never instantiate a query. A Done goes to handleDone; anything else
// is an announce for the issuer side. The report lands in the query's
// per-process table under the epoch supersession rule — a claim below
// the highest epoch seen from that process is stale and ignored; at
// equal or higher epoch the last write wins (the transports deliver one
// peer's frames in order, so a same-epoch quiet follows its busy).
func (rt *Runtime) handleQuiesce(m transport.Message, q wire.Quiesce) {
	rt.met.quiesceRecv.Inc()
	if !rt.quiesce || m.From < 0 || int(m.From) >= len(rt.procOf) {
		return
	}
	if q.Done {
		rt.handleDone(m)
		return
	}
	qs := rt.lookupQuery(m.Query)
	if qs == nil || qs.retired.Load() {
		return
	}
	proc := rt.procOf[m.From]
	qs.qmu.Lock()
	cur, seen := qs.peerQuiet[proc]
	stale := seen && q.Epoch < cur.epoch
	if !stale {
		if qs.peerQuiet == nil {
			qs.peerQuiet = make(map[int32]quiesceReport, len(rt.remoteHosts))
		}
		qs.peerQuiet[proc] = quiesceReport{epoch: q.Epoch, act: q.Activity, quiet: q.Quiet}
	}
	qs.qmu.Unlock()
	if !stale && rt.trace != nil {
		detail := "peer-busy"
		if q.Quiet {
			detail = "peer-quiet"
		}
		rt.trace.Record(int64(qs.id), obs.EvQuiesce, int(m.From), qs.tickNow(rt), detail)
	}
}

// remoteQuiet reports whether every peer process of the roster currently
// claims quiescence for qs. A process that has never reported — dead,
// partitioned, or built without Config.Quiesce — keeps this false
// forever, which is exactly the fallback: the read then waits for the
// classic floor or the hard cap.
func (rt *Runtime) remoteQuiet(qs *queryState) bool {
	if qs == nil || !rt.quiesce {
		return false
	}
	qs.qmu.Lock()
	defer qs.qmu.Unlock()
	if len(qs.peerQuiet) < len(rt.remoteHosts) {
		return false
	}
	for _, h := range rt.remoteHosts {
		if r, ok := qs.peerQuiet[rt.procOf[h]]; !ok || !r.quiet {
			return false
		}
	}
	return true
}

// quiesceFloor is the earliest elapsed time at which a quiesce-backed
// early read is considered: one broadcast sweep plus margin — the silence
// every peer process has affirmatively claimed by then.
// Returns -1 when the fast path is unavailable for this query.
func (rt *Runtime) quiesceFloor(qs *queryState) time.Duration {
	if qs == nil || !rt.quiesce || qs.deadline <= 0 {
		return -1
	}
	return time.Duration(qs.deadline/2+2) * rt.hop
}

// buildRoster derives the per-host process partition facts New needs
// from a Config roster: the host→process map, and one host of each
// distinct peer process — who owes the issuer an announce, and where a
// peer's control frames are addressed.
func buildRoster(roster []int, n int, local []bool, localHosts []graph.HostID) (procOf []int32, remoteHosts []graph.HostID, err error) {
	if len(roster) != n {
		return nil, nil, fmt.Errorf("node: roster has %d entries for %d hosts", len(roster), n)
	}
	procOf = make([]int32, n)
	for h, p := range roster {
		if p < 0 {
			return nil, nil, fmt.Errorf("node: roster maps host %d to negative process %d", h, p)
		}
		procOf[h] = int32(p)
	}
	self := procOf[localHosts[0]]
	seen := make(map[int32]bool)
	for h := 0; h < n; h++ {
		if local[h] {
			continue
		}
		if p := procOf[h]; p != self && !seen[p] {
			seen[p] = true
			remoteHosts = append(remoteHosts, graph.HostID(h))
		}
	}
	return procOf, remoteHosts, nil
}
