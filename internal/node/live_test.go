package node

import (
	"sync"
	"testing"
	"time"

	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/transport"
)

// chanRuntime builds an all-local runtime over the channel transport,
// delivering at hop/2 — the margin under δ every chan fleet runs with.
func chanRuntime(t testing.TB, g *graph.Graph, values []int64, hop time.Duration) *Runtime {
	t.Helper()
	rt, err := New(Config{Graph: g, Values: values, Transport: transport.NewChannel(g.Len(), hop/2), Hop: hop})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// startHandlers is the tests' door onto the engine for bare handlers: a
// factory serving them as a handler-only instance (no deadline, so never
// retired), Start, and StartQuery(1), which runs every handler's Start.
func startHandlers(t testing.TB, rt *Runtime, hs []sim.Handler) {
	t.Helper()
	startInstance(t, rt, &QueryInstance{Handlers: hs})
}

// startInstance is startHandlers for an instance that carries more than
// handlers — a membership timeline, say.
func startInstance(t testing.TB, rt *Runtime, inst *QueryInstance) {
	t.Helper()
	rt.SetQueryFactory(func(QueryID) (*QueryInstance, error) { return inst, nil })
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StartQuery(1); err != nil {
		t.Fatal(err)
	}
}

// line builds a path graph 0-1-…-(n-1).
func line(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.HostID(i), graph.HostID(i+1))
	}
	g.SortAdjacency()
	return g
}

// liveEcho floods a token once; concurrency-safe because each host's
// callbacks are serialized, but sawToken is read cross-goroutine.
type liveEcho struct {
	mu       sync.Mutex
	initiate bool
	seen     bool
}

func (e *liveEcho) Start(ctx *sim.Context) {
	if e.initiate {
		e.mu.Lock()
		e.seen = true
		e.mu.Unlock()
		ctx.SendAll("token")
	}
}

func (e *liveEcho) Receive(ctx *sim.Context, msg sim.Message) {
	e.mu.Lock()
	if e.seen {
		e.mu.Unlock()
		return
	}
	e.seen = true
	e.mu.Unlock()
	ctx.SendAllExcept(msg.From, "token")
}

func (e *liveEcho) Timer(ctx *sim.Context, tag int) {}

func (e *liveEcho) sawToken() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seen
}

// echoes builds one liveEcho per host of g, host 0 initiating.
func echoes(g *graph.Graph) ([]*liveEcho, []sim.Handler) {
	es := make([]*liveEcho, g.Len())
	hs := make([]sim.Handler, g.Len())
	for i := range es {
		es[i] = &liveEcho{initiate: i == 0}
		hs[i] = es[i]
	}
	return es, hs
}

func TestRuntimeFloodReachesAll(t *testing.T) {
	g := line(8)
	rt := chanRuntime(t, g, nil, time.Millisecond)
	hs, handlers := echoes(g)
	startHandlers(t, rt, handlers)
	deadline := time.Now().Add(2 * time.Second)
	for {
		all := true
		for _, h := range hs {
			if !h.sawToken() {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			rt.Stop()
			t.Fatal("live flood did not reach all hosts in time")
		}
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	if rt.Stats().MessagesSent == 0 {
		t.Fatal("no messages recorded")
	}
}

func TestRuntimeKillBlocksPropagation(t *testing.T) {
	g := line(4)
	rt := chanRuntime(t, g, nil, 2*time.Millisecond)
	hs, handlers := echoes(g)
	// Gone at tick 0, never a member: the token can never pass host 1.
	startInstance(t, rt, &QueryInstance{Handlers: handlers, Churn: churn.Timeline{{H: 1, T: 0}}})
	time.Sleep(100 * time.Millisecond)
	rt.Stop()
	if hs[2].sawToken() || hs[3].sawToken() {
		t.Fatal("token crossed a departed host")
	}
}

func TestRuntimeStopIdempotent(t *testing.T) {
	rt := chanRuntime(t, line(2), nil, time.Millisecond)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	rt.Stop() // must not panic or deadlock
}

// timerHandler drives SetTimer/Timer callbacks.
type timerHandler struct {
	onStart func(ctx *sim.Context)
	onTimer func(tag int)
}

func (h *timerHandler) Start(ctx *sim.Context) {
	if h.onStart != nil {
		h.onStart(ctx)
	}
}
func (h *timerHandler) Receive(ctx *sim.Context, msg sim.Message) {}
func (h *timerHandler) Timer(ctx *sim.Context, tag int) {
	if h.onTimer != nil {
		h.onTimer(tag)
	}
}

func TestRuntimeTimer(t *testing.T) {
	rt := chanRuntime(t, line(2), nil, time.Millisecond)
	done := make(chan int, 1)
	startHandlers(t, rt, []sim.Handler{&timerHandler{
		onStart: func(ctx *sim.Context) { ctx.SetTimer(ctx.Now()+5, 7) },
		onTimer: func(tag int) {
			select {
			case done <- tag:
			default:
			}
		},
	}})
	select {
	case tag := <-done:
		if tag != 7 {
			t.Fatalf("timer tag = %d, want 7", tag)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("live timer never fired")
	}
	rt.Stop()
}
