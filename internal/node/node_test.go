package node

import (
	"net"
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/topology"
	"validity/internal/transport"
)

var fmParams = agg.Params{Vectors: 64, Bits: 32}

// testHop is the wall-clock δ used by these tests, widened under -race.
const testHop = raceSlowdown * 5 * time.Millisecond

// waitQuery sleeps past the query deadline with slack for scheduler noise.
func waitQuery(dHat int, hop time.Duration) {
	time.Sleep(time.Duration(2*dHat+10)*hop + 50*time.Millisecond)
}

func TestRuntimeWildfireCountMatchesOracle(t *testing.T) {
	const n = 150
	g := topology.NewGnutella(n, 11)
	dHat := g.Diameter(nil) + 2
	q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: fmParams}
	wf := protocol.NewWildfire(q)

	rt := chanRuntime(t, g, nil, testHop)
	inst, err := BuildInstance(rt, wf, 17)
	if err != nil {
		t.Fatal(err)
	}
	startInstance(t, rt, inst)
	waitQuery(dHat, testHop)
	rt.Stop()

	v, ok := wf.Result()
	if !ok {
		t.Fatal("wildfire declared no result")
	}
	b := oracle.Compute(g, make([]int64, n), 0, nil, q.Deadline(), agg.Count)
	if b.LowerValue != n || b.UpperValue != n {
		t.Fatalf("oracle bounds [%v, %v], want [%d, %d]", b.LowerValue, b.UpperValue, n, n)
	}
	if m := b.Matched(make([]int64, n), fmParams, 17); !m.Valid(v) {
		t.Fatalf("estimate %.1f outside its matched bounds [%.1f, %.1f]", v, m.LowerValue, m.UpperValue)
	}
	st := rt.Stats()
	if st.MessagesSent == 0 || st.MaxComputation() == 0 || st.TimeCost == 0 {
		t.Fatalf("cost accounting empty: %+v", st)
	}
	if st.TimeCost > 4*dHat {
		t.Fatalf("time cost %d exceeds any causal chain a %d-deadline query can make", st.TimeCost, 2*dHat)
	}
}

func TestRuntimeWildfireCountUnderKill(t *testing.T) {
	const n = 120
	g := topology.NewGnutella(n, 13)
	dHat := g.Diameter(nil) + 2
	q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: fmParams}
	wf := protocol.NewWildfire(q)

	rt := chanRuntime(t, g, nil, testHop)
	inst, err := BuildInstance(rt, wf, 19)
	if err != nil {
		t.Fatal(err)
	}
	// A tenth of the network is switched off before the query starts
	// (§3.2 departures; h_q itself is protected as in the experiments).
	var sched churn.Timeline
	for h := graph.HostID(1); int(h) <= n/10; h++ {
		sched = append(sched, churn.Event{H: h, T: 0})
	}
	inst.Churn = sched
	startInstance(t, rt, inst)
	waitQuery(dHat, testHop)
	rt.Stop()

	v, ok := wf.Result()
	if !ok {
		t.Fatal("wildfire declared no result")
	}
	b := oracle.Compute(g, make([]int64, n), 0, sched, q.Deadline(), agg.Count)
	if b.LowerValue >= b.UpperValue {
		t.Fatalf("degenerate oracle bounds [%v, %v]", b.LowerValue, b.UpperValue)
	}
	if m := b.Matched(make([]int64, n), fmParams, 19); !m.Valid(v) {
		t.Fatalf("estimate %.1f outside its matched bounds [%.1f, %.1f]", v, m.LowerValue, m.UpperValue)
	}
}

// freeAddrs reserves n distinct loopback addresses.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// TestRuntimeShardedOverTCP runs one WILDFIRE COUNT with the topology
// sharded across two runtimes connected by the TCP transport — the
// in-process twin of the cmd/validityd multi-process demo.
func TestRuntimeShardedOverTCP(t *testing.T) {
	const n = 60
	const hop = testHop
	g := topology.NewRandom(n, 5, 23)
	dHat := g.Diameter(nil) + 2

	ports := freeAddrs(t, 2)
	addrs := make([]string, n)
	var localA, localB []graph.HostID
	for h := 0; h < n; h++ {
		if h < n/2 {
			addrs[h] = ports[0]
			localA = append(localA, graph.HostID(h))
		} else {
			addrs[h] = ports[1]
			localB = append(localB, graph.HostID(h))
		}
	}

	newShard := func(local []graph.HostID) (*Runtime, *protocol.Wildfire) {
		q := protocol.Query{Kind: agg.Count, Hq: 0, DHat: dHat, Params: fmParams}
		wf := protocol.NewWildfire(q)
		rt, err := New(Config{
			Graph:     g,
			Transport: transport.NewTCP(addrs),
			Hop:       hop,
			Local:     local,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.SetQueryFactory(func(QueryID) (*QueryInstance, error) {
			return BuildInstance(rt, wf, 29)
		})
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		return rt, wf
	}

	// The worker shard first: its instance materializes on first contact.
	rtB, _ := newShard(localB)
	defer rtB.Stop()
	rtA, wfA := newShard(localA)
	defer rtA.Stop()
	if _, err := rtA.StartQuery(1); err != nil {
		t.Fatal(err)
	}

	waitQuery(dHat, hop)
	rtA.Stop()
	rtB.Stop()

	v, ok := wfA.Result()
	if !ok {
		t.Fatal("wildfire declared no result at the sharded h_q")
	}
	b := oracle.Compute(g, make([]int64, n), 0, nil, protocol.Query{DHat: dHat}.Deadline(), agg.Count)
	if m := b.Matched(make([]int64, n), fmParams, 29); !m.Valid(v) {
		t.Fatalf("sharded estimate %.1f outside its matched bounds [%.1f, %.1f]", v, m.LowerValue, m.UpperValue)
	}
	if rtA.Stats().MessagesSent == 0 || rtB.Stats().MessagesSent == 0 {
		t.Fatal("a shard sent no messages; the query never crossed the wire")
	}
}
