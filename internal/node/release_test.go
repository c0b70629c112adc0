package node

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/obs"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/wire"
	"validity/internal/zipfval"
)

// retiredEvents returns the details of query id's EvRetired trace events.
func retiredEvents(rt *Runtime, id QueryID) []string {
	var details []string
	for _, ev := range rt.trace.Events(int64(id)) {
		if ev.Kind == obs.EvRetired {
			for i := int64(0); i < ev.Count; i++ {
				details = append(details, ev.Detail)
			}
		}
	}
	return details
}

// TestReleaseRetiresExactlyOnce walks one query through every retirement
// it can meet: the answer releases it, the tkRetire backstop armed at
// instantiation fires on it anyway, and two compactions follow (the one
// release re-armed and the backstop's). The retirement is counted, traced
// and summarized once, and the frozen answer reads back — through
// QueryResult and through a second AwaitQueryResult — until compaction.
func TestReleaseRetiresExactlyOnce(t *testing.T) {
	hop := raceSlowdown * 5 * time.Millisecond
	rt, spec := newWildfireEngine(t, 30, hop)
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	qs := rt.lookupQuery(1)
	floor, settle, hardCap := rt.AwaitBracket(spec.Deadline())
	v, ok, err := rt.AwaitQueryResult(1, spec.Hq, floor, settle, hardCap)
	if err != nil || !ok {
		t.Fatalf("await failed: ok=%v err=%v", ok, err)
	}
	if !qs.retired.Load() || qs.inst.Load() != nil {
		t.Fatal("an answered query still holds its protocol state")
	}

	rt.fireTimer(&timerEntry{kind: tkRetire, id: 1})
	if n := rt.met.retired.Value(); n != 1 {
		t.Fatalf("node_queries_retired_total = %d after release then tkRetire, want 1", n)
	}
	if got := retiredEvents(rt, 1); len(got) != 1 || got[0] != "answered" {
		t.Fatalf("retired trace events %q, want one \"answered\"", got)
	}

	if fv, fok, err := rt.QueryResult(1, spec.Hq); err != nil || !fok || fv != v {
		t.Fatalf("frozen answer reads back (%v, %v, %v), want (%v, true, nil)", fv, fok, err, v)
	}
	start := time.Now()
	if av, aok, err := rt.AwaitQueryResult(1, spec.Hq, time.Hour, settle, time.Hour); err != nil || !aok || av != v {
		t.Fatalf("second await returned (%v, %v, %v), want the frozen (%v, true, nil)", av, aok, err, v)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("second await of an answered query waited %v", waited)
	}
	if st, ok := rt.QueryStats(1); !ok || st.MessagesSent == 0 || st.PerHostProcessed == nil {
		t.Fatalf("a released query's counters are gone before compaction: %+v", st)
	}

	rt.fireTimer(&timerEntry{kind: tkCompact, id: 1})
	rt.fireTimer(&timerEntry{kind: tkCompact, id: 1})
	if sums := rt.RetiredStats(); len(sums) != 1 || sums[0].Query != 1 || sums[0].MessagesSent == 0 {
		t.Fatalf("retired ring holds %+v, want one summary of query 1", sums)
	}
	if n := rt.met.compacted.Value(); n != 1 {
		t.Fatalf("node_queries_compacted_total = %d, want 1", n)
	}
	if _, _, err := rt.QueryResult(1, spec.Hq); err == nil {
		t.Fatal("a compacted query still answers QueryResult")
	}
}

// TestBuildInstanceLocalHostsOnly pins where a query's protocol state
// lives: BuildInstance on a runtime that does not serve h_q mints a
// handler for each host the runtime serves and nothing else, and the
// instance's Result reports "nothing declared here" instead of reaching
// for h_q's handler.
func TestBuildInstanceLocalHostsOnly(t *testing.T) {
	g := topology.Generate(topology.Random, 20, 5)
	local := []graph.HostID{3, 4, 9, 15}
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(20, 0), Local: local})
	if err != nil {
		t.Fatal(err)
	}
	q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: 8, Params: fmParams}
	for _, p := range []protocol.Protocol{
		protocol.NewWildfire(q),
		protocol.NewSpanningTree(q),
		protocol.NewDAG(q, 2),
		protocol.NewAllReport(q),
		protocol.NewRandomizedReport(q, 0.5),
		protocol.NewGossip(q, 10),
	} {
		inst, err := BuildInstance(rt, p, 7)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		built := 0
		for h, hd := range inst.Handlers {
			if hd == nil {
				continue
			}
			built++
			if !rt.Local(graph.HostID(h)) {
				t.Errorf("%s: built a handler for host %d, served elsewhere", p.Name(), h)
			}
		}
		if built != len(local) {
			t.Errorf("%s: built %d handlers for %d local hosts", p.Name(), built, len(local))
		}
		if v, ok := inst.Protocol.Result(); ok {
			t.Errorf("%s: declared %v on a process that does not serve h_q", p.Name(), v)
		}
	}
	bad := q
	bad.DHat = 0
	if _, err := BuildInstance(rt, protocol.NewWildfire(bad), 7); err == nil {
		t.Error("BuildInstance accepted a query with D̂ = 0")
	}
}

// TestDoneHostile pins who may call a query over. The runtime under test
// is process 0 of a three-process roster; query 1's origin, host 7, lives
// in process 1, host 6 in process 2. A Done retires query 1 only when it
// comes from process 1; from anyone else, for an id this process never
// saw, or for one already compacted, it retires and instantiates nothing.
func TestDoneHostile(t *testing.T) {
	g := topology.Generate(topology.Random, 8, 7)
	rt, err := New(Config{
		Graph:     g,
		Transport: transport.NewChannel(8, 0),
		Hop:       4 * time.Millisecond,
		Local:     []graph.HostID{0, 1, 2, 3, 4, 5},
		Quiesce:   true,
		Roster:    []int{0, 0, 0, 0, 0, 0, 2, 1},
		Obs:       obs.NewRegistry(),
		Trace:     obs.NewTracer(0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var factoryCalls atomic.Int64
	rt.SetQueryFactory(func(QueryID) (*QueryInstance, error) {
		factoryCalls.Add(1)
		return nil, nil
	})
	done := func(from graph.HostID, id QueryID) {
		rt.handleQuiesce(transport.Message{From: from, To: 0, Query: id}, wire.Quiesce{Done: true})
	}
	worker, issued, compacted := holdQuery(rt, 1, 7), holdQuery(rt, 2, 0), holdQuery(rt, 3, 7)
	rt.retire(compacted, "timer")
	rt.compact(compacted)
	retiredBefore := rt.met.retired.Value()

	done(6, 1)   // a peer process, but not the one serving the origin
	done(3, 1)   // this very process
	done(99, 1)  // no such host
	done(-1, 1)  // no such host
	done(7, 2)   // a query this process issued itself
	done(7, 404) // a query this process never saw
	done(7, 3)   // a query already compacted
	if worker.retired.Load() || issued.retired.Load() {
		t.Fatal("a Done from a process not serving the origin retired a query")
	}
	if n := rt.met.retired.Value(); n != retiredBefore {
		t.Fatalf("hostile Dones moved node_queries_retired_total %d -> %d", retiredBefore, n)
	}
	if rt.lookupQuery(404) != nil || rt.lookupQuery(3) != nil || factoryCalls.Load() != 0 {
		t.Fatalf("a Done instantiated a query (factory ran %d times)", factoryCalls.Load())
	}

	done(7, 1)
	done(7, 1)
	if !worker.retired.Load() {
		t.Fatal("the origin process's Done did not retire the query")
	}
	if n := rt.met.retired.Value(); n != retiredBefore+1 {
		t.Fatalf("two Dones for one query moved node_queries_retired_total by %d, want 1", n-retiredBefore)
	}
	if got := retiredEvents(rt, 1); len(got) != 1 || got[0] != "done" {
		t.Fatalf("retired trace events %q, want one \"done\"", got)
	}
}

// dropDone is a transport that loses every Done it is asked to send.
type dropDone struct{ transport.Transport }

func (d dropDone) Send(m transport.Message) error {
	if q, ok := m.Payload.(wire.Quiesce); ok && q.Done {
		return nil
	}
	return d.Transport.Send(m)
}

// tcpFleet60 boots the tcp60_static fleet in miniature: 60 hosts of one
// random graph split over three runtimes on loopback TCP, quiescence plane
// on, odd ids COUNT and even ids MIN at h_q = 0. rts[0] issues; wrap, when
// non-nil, decorates the issuer's transport.
func tcpFleet60(t *testing.T, hop time.Duration, wrap func(transport.Transport) transport.Transport) []*Runtime {
	t.Helper()
	const n, parts = 60, 3
	g := topology.Generate(topology.Random, n, 23)
	values := zipfval.Default(23).Values(n)
	ports := freeAddrs(t, parts)
	addrs, roster := make([]string, n), make([]int, n)
	locals := make([][]graph.HostID, parts)
	for h := 0; h < n; h++ {
		p := h * parts / n
		addrs[h], roster[h] = ports[p], p
		locals[p] = append(locals[p], graph.HostID(h))
	}
	rts := make([]*Runtime, parts)
	for p := range rts {
		var tr transport.Transport = transport.NewTCP(addrs)
		if p == 0 && wrap != nil {
			tr = wrap(tr)
		}
		rt, err := New(Config{
			Graph: g, Values: values, Transport: tr, Hop: hop, Local: locals[p],
			Quiesce: true, Roster: roster,
			Obs: obs.NewRegistry(), Trace: obs.NewTracer(0, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
			q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: 12, Params: fmParams}
			if id%2 == 0 {
				q.Kind = agg.Min
			}
			inst, err := BuildInstance(rt, protocol.NewWildfire(q), QuerySeed(23, id))
			if err == nil {
				inst.Origin = q.Hq
			}
			return inst, err
		})
		rts[p] = rt
	}
	for p := parts - 1; p >= 0; p-- { // workers first
		if err := rts[p].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rts[p].Stop)
	}
	return rts
}

// waitUntil polls cond for up to limit.
func waitUntil(limit time.Duration, cond func() bool) bool {
	for end := time.Now().Add(limit); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestReleaseAcrossTCPFleet runs COUNT and MIN over a three-runtime TCP
// fleet and a twin of it. The fleet under test reads early on the
// quiescence plane, which releases the query; the twin reads at the cap:
// same answers. Then the state: the issuer's Done reaches both workers,
// which retire on it — not on the timer — so every process of the fleet
// has retired exactly what was answered.
func TestReleaseAcrossTCPFleet(t *testing.T) {
	hop := testHop
	rts, twin := tcpFleet60(t, hop, nil), tcpFleet60(t, hop, nil)
	const deadline = sim.Time(24)
	floor, settle, hardCap := rts[0].AwaitBracket(deadline)
	for id := QueryID(1); id <= 2; id++ {
		late := capRead(t, twin[0], id, 0, floor)
		if _, err := rts[0].StartQuery(id); err != nil {
			t.Fatal(err)
		}
		v, ok, err := rts[0].AwaitQueryResult(id, 0, floor, settle, hardCap)
		if err != nil || !ok {
			t.Fatalf("query %d: await failed: ok=%v err=%v", id, ok, err)
		}
		if late := late(); late != v {
			t.Fatalf("query %d: released early read %v differs from the twin's cap read %v", id, v, late)
		}
	}
	if n := rts[0].met.quiesceRecv.Value(); n == 0 {
		t.Error("the issuer received no quiescence announce")
	}
	for p, rt := range rts {
		if !waitUntil(time.Duration(deadline)*hop, func() bool { return rt.met.retired.Value() == 2 }) {
			t.Fatalf("process %d retired %d of 2 answered queries", p, rt.met.retired.Value())
		}
		want := "done"
		if p == 0 {
			want = "answered"
		}
		for id := QueryID(1); id <= 2; id++ {
			if got := retiredEvents(rt, id); len(got) != 1 || got[0] != want {
				t.Errorf("process %d query %d: retired trace events %q, want one %q", p, id, got, want)
			}
		}
	}
}

// TestLostDoneLeavesTimerBackstop loses every Done on the way out of the
// issuer: the answer is unaffected, the workers keep the query, and the
// tkRetire entry armed at instantiation is what retires it.
func TestLostDoneLeavesTimerBackstop(t *testing.T) {
	hop := testHop
	rts := tcpFleet60(t, hop, func(tr transport.Transport) transport.Transport { return dropDone{tr} })
	if _, err := rts[0].StartQuery(1); err != nil {
		t.Fatal(err)
	}
	floor, settle, hardCap := rts[0].AwaitBracket(24)
	if _, ok, err := rts[0].AwaitQueryResult(1, 0, floor, settle, hardCap); err != nil || !ok {
		t.Fatalf("await failed: ok=%v err=%v", ok, err)
	}
	time.Sleep(4 * hop) // a Done would have landed by now
	for p, rt := range rts[1:] {
		qs := rt.lookupQuery(1)
		if qs == nil {
			t.Fatalf("worker %d never saw the query", p+1)
		}
		if qs.retired.Load() {
			t.Fatalf("worker %d retired the query with every Done lost", p+1)
		}
		rt.fireTimer(&timerEntry{kind: tkRetire, id: 1})
		if got := retiredEvents(rt, 1); len(got) != 1 || got[0] != "timer" {
			t.Fatalf("worker %d: retired trace events %q, want one \"timer\"", p+1, got)
		}
	}
}

// TestReleaseBoundsLiveState answers a chan60_churn stream — the
// benchmark's graph, values, COUNT/MIN mix, h_q pair and session churn —
// back to back from two closed-loop clients. Every answer is judged
// against the oracle bounds of its own membership timeline, and at every
// sample the queries not yet retired are the ones in flight: at most one
// per client, plus one caught between its answer and its release.
func TestReleaseBoundsLiveState(t *testing.T) {
	if testing.Short() {
		t.Skip("answers a few seconds of wall-clock queries")
	}
	const (
		n, seed, dHat, clients = 60, 23, 12, 2
		queries                = 200 / raceSlowdown
	)
	hop := raceSlowdown * 5 * time.Millisecond
	g := topology.Generate(topology.Random, n, seed)
	values := zipfval.Default(seed).Values(n)
	src, err := churn.ParseSource("model=sessions,mean=60,join=20", n)
	if err != nil {
		t.Fatal(err)
	}
	specFor := func(id QueryID) protocol.Query {
		i := int(id - 1)
		return protocol.Query{
			Kind:   []agg.Kind{agg.Count, agg.Min}[i%2],
			Hq:     []graph.HostID{0, 7}[i%2],
			DHat:   dHat,
			Params: fmParams,
		}
	}
	churnFor := func(id QueryID, q protocol.Query) churn.Timeline {
		return src.Schedule(churn.QuerySeed(seed, int64(id)), q.Hq, q.Deadline())
	}
	rt, err := New(Config{
		Graph: g, Values: values, Transport: transport.NewChannel(n, hop/2), Hop: hop,
		Obs: obs.NewRegistry(), Trace: obs.NewTracer(0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		q := specFor(id)
		inst, err := BuildInstance(rt, protocol.NewWildfire(q), QuerySeed(seed, id))
		if err == nil {
			inst.Churn, inst.Origin = churnFor(id, q), q.Hq
		}
		return inst, err
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	stop := make(chan struct{})
	var peak int
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			unretired := 0
			for _, s := range rt.QuerySnapshots() {
				if !s.Retired {
					unretired++
				}
			}
			peak = max(peak, unretired)
			select {
			case <-stop:
				return
			case <-time.After(hop / 2):
			}
		}
	}()

	answers := make([]float64, queries+1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := QueryID(next.Add(1)); id <= queries; id = QueryID(next.Add(1)) {
				q := specFor(id)
				if _, err := rt.StartQuery(id); err != nil {
					t.Errorf("query %d: %v", id, err)
					return
				}
				floor, settle, hardCap := rt.AwaitBracket(q.Deadline())
				v, ok, err := rt.AwaitQueryResult(id, q.Hq, floor, settle, hardCap)
				if err != nil || !ok {
					t.Errorf("query %d: await failed: ok=%v err=%v", id, ok, err)
					return
				}
				answers[id] = v
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	if t.Failed() {
		return
	}

	for id := QueryID(1); id <= queries; id++ {
		q := specFor(id)
		b := oracle.Compute(g, values, q.Hq, churnFor(id, q), q.Deadline(), q.Kind)
		if !b.ValidFactor(answers[id], oracle.FMSlack(q.Kind, fmParams.Vectors)) {
			t.Errorf("query %d %s at h_q=%d answered %.2f, bounds q(H_C)=%.2f q(H_U)=%.2f",
				id, q.Kind, q.Hq, answers[id], b.LowerValue, b.UpperValue)
		}
	}
	if peak > clients+1 {
		t.Errorf("%d queries unretired at one sample, want at most %d in flight", peak, clients+1)
	}
	if n := rt.met.retired.Value(); n != queries {
		t.Errorf("node_queries_retired_total = %d after %d answers", n, queries)
	}
	for _, s := range rt.QuerySnapshots() {
		if !s.Retired {
			t.Errorf("query %d is still unretired after its answer", s.Query)
		}
	}
}
