package node

import (
	"strconv"
	"testing"
	"time"

	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/transport"
)

// tickPinger sends one tagged payload per scheduled tick: "t0" at Start,
// then "t<k>" from a timer per entry of at.
type tickPinger struct {
	to graph.HostID
	at []sim.Time
}

func (p *tickPinger) Start(ctx *sim.Context) {
	ctx.Send(p.to, "t0")
	for i, at := range p.at {
		ctx.SetTimer(at, i)
	}
}
func (p *tickPinger) Receive(ctx *sim.Context, msg sim.Message) {}
func (p *tickPinger) Timer(ctx *sim.Context, tag int) {
	ctx.Send(p.to, "t"+strconv.Itoa(int(p.at[tag])))
}

// TestPerQueryLateJoiner drives a join through the shared timer heap:
// host 1 is a late joiner of query 1, absent until tick 3 of that
// query's clock. The tick-0 payload must be swallowed, the tick-6
// payload delivered — and the host's handler Start runs lazily at the
// join, exactly like first contact.
func TestPerQueryLateJoiner(t *testing.T) {
	const hop = raceSlowdown * 10 * time.Millisecond
	g := line(2)
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(2, hop/2), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	r := &payloadRecorder{}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		return &QueryInstance{
			Handlers: []sim.Handler{&tickPinger{to: 1, at: []sim.Time{6}}, r},
			Deadline: 1000,
			Churn:    churn.Timeline{{H: 1, T: 3, Kind: churn.Join}},
		}, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(r.snapshot()) < 1 {
		if time.Now().After(deadline) {
			st, _ := rt.QueryStats(1)
			t.Fatalf("joined host received %v (stats %+v); want the post-join payload", r.snapshot(), st)
		}
		time.Sleep(time.Millisecond)
	}
	if got := r.snapshot(); len(got) != 1 || got[0] != "t6" {
		t.Fatalf("host 1 received %v, want only the post-join payload t6", got)
	}
	st, _ := rt.QueryStats(1)
	if st.MessagesDropped == 0 {
		t.Fatal("the pre-join payload was not counted as dropped")
	}
	if st.MessagesDelivered != 1 {
		t.Fatalf("delivered = %d, want 1", st.MessagesDelivered)
	}
}

// TestPerQueryRebirth follows a full leave/rejoin session on one query:
// host 1 leaves at tick 3 and returns at tick 9, so of the payloads sent
// at ticks 0, 6, and 12 exactly the middle one vanishes.
func TestPerQueryRebirth(t *testing.T) {
	const hop = raceSlowdown * 10 * time.Millisecond
	g := line(2)
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(2, hop/2), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	r := &payloadRecorder{}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		return &QueryInstance{
			Handlers: []sim.Handler{&tickPinger{to: 1, at: []sim.Time{6, 12}}, r},
			Deadline: 1000,
			Churn: churn.Timeline{
				{H: 1, T: 3},
				{H: 1, T: 9, Kind: churn.Join},
			},
		}, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(r.snapshot()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("host 1 received %v; want the tick-0 and tick-12 payloads", r.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	// A settle beat: no further payload may trickle in late.
	time.Sleep(4 * hop)
	got := r.snapshot()
	if len(got) != 2 || got[0] != "t0" || got[1] != "t12" {
		t.Fatalf("host 1 received %v; want [t0 t12] — the mid-absence payload must vanish", got)
	}
	st, _ := rt.QueryStats(1)
	if st.MessagesDropped == 0 {
		t.Fatal("the mid-absence payload was not counted as dropped")
	}
}

// TestJoinFiresOnAllAbsentShard pins the clock-arming rule for joins: a
// process whose every local host is absent at tick 0 for a query must
// still arm that query's clock on the first frame it sees — the frame is
// dropped at the dead host, but the clock it arms is what schedules the
// timeline's join ticks. Before the fix, such a shard never woke its
// late joiners: frames were dropped before the clock could arm.
func TestJoinFiresOnAllAbsentShard(t *testing.T) {
	const hop = raceSlowdown * 10 * time.Millisecond
	g := line(2)
	ports := freeAddrs(t, 2)
	addrs := []string{ports[0], ports[1]}

	r := &payloadRecorder{}
	newShard := func(local []graph.HostID, rec *payloadRecorder) *Runtime {
		rt, err := New(Config{
			Graph:     g,
			Transport: transport.NewTCP(addrs),
			Hop:       hop,
			Local:     local,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
			return &QueryInstance{
				Handlers: []sim.Handler{&tickPinger{to: 1, at: []sim.Time{6, 9, 12}}, rec},
				Deadline: 1000,
				Churn:    churn.Timeline{{H: 1, T: 3, Kind: churn.Join}},
			}, nil
		})
		return rt
	}

	rtB := newShard([]graph.HostID{1}, r) // serves only the late joiner
	if err := rtB.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtB.Stop()
	rtA := newShard([]graph.HostID{0}, &payloadRecorder{})
	if err := rtA.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtA.Stop()

	if _, err := rtA.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	// The tick-0 frame lands at rtB while host 1 is still absent — it is
	// dropped, but must arm rtB's query clock so the tick-3 join fires
	// and a later payload gets through.
	deadline := time.Now().Add(15 * time.Second)
	for len(r.snapshot()) == 0 {
		if time.Now().After(deadline) {
			st, _ := rtB.QueryStats(1)
			t.Fatalf("late joiner never woke on the all-absent shard (stats %+v)", st)
		}
		time.Sleep(time.Millisecond)
	}
	for _, got := range r.snapshot() {
		if got == "t0" {
			t.Fatalf("pre-join payload delivered: %v", r.snapshot())
		}
	}
	if st, _ := rtB.QueryStats(1); st.MessagesDropped == 0 {
		t.Fatal("the pre-join frame was not counted as dropped")
	}
}

// TestDropRetiredFoldsOnce pins the compaction straggler fix: a drop
// that lands before compaction is folded with the query's counters, one
// that lands after goes straight to the runtime totals and the ring
// summary — and nothing is counted twice or lost in between.
func TestDropRetiredFoldsOnce(t *testing.T) {
	g := line(2)
	rt, err := New(Config{Graph: g, Transport: transport.NewChannel(2, 0), Hop: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r := &payloadRecorder{}
	rt.SetQueryFactory(func(id QueryID) (*QueryInstance, error) {
		return &QueryInstance{Handlers: []sim.Handler{r, r}, Deadline: 1000}, nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
	qs := rt.lookupQuery(1)
	if qs == nil {
		t.Fatal("query 1 has no state")
	}
	rt.retire(qs, "timer")

	// Straggler before compaction: serialized against the (not yet run)
	// fold, lands on the query's own counter.
	rt.dropRetired(qs)
	if st, _ := rt.QueryStats(1); st.MessagesDropped != 1 {
		t.Fatalf("pre-compaction drop count = %d, want 1", st.MessagesDropped)
	}

	rt.compact(qs)
	if total := rt.Stats(); total.MessagesDropped != 1 {
		t.Fatalf("compaction folded %d drops, want 1", total.MessagesDropped)
	}

	// Straggler after compaction: the demux entry is gone, so the drop
	// lands directly on the folded totals and the ring summary.
	rt.dropRetired(qs)
	if total := rt.Stats(); total.MessagesDropped != 2 {
		t.Fatalf("post-compaction drop lost: totals show %d, want 2", total.MessagesDropped)
	}
	rs := rt.RetiredStats()
	if len(rs) != 1 || rs[0].MessagesDropped != 2 {
		t.Fatalf("ring summary = %+v, want 2 dropped", rs)
	}
	// compact is idempotent: a second call must not double-fold.
	rt.compact(qs)
	if total := rt.Stats(); total.MessagesDropped != 2 {
		t.Fatalf("re-compaction double-folded: totals show %d, want 2", total.MessagesDropped)
	}
}
