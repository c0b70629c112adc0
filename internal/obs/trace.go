package obs

import (
	"fmt"
	"sync"
	"time"
)

// EventKind classifies one per-query lifecycle event.
type EventKind uint8

const (
	// EvIssued: the query was started at the issuing process.
	EvIssued EventKind = iota
	// EvFirstTraffic: the query's clock armed — its first send or
	// delivery in this process.
	EvFirstTraffic
	// EvChurnLeave: a scheduled departure on the query's membership
	// timeline was applied to a local host.
	EvChurnLeave
	// EvChurnJoin: a scheduled arrival was applied to a local host.
	EvChurnJoin
	// EvFrameDrop: a frame for this query was dropped; Detail carries the
	// reason (query-dead, retired, unknown-query, send-error).
	EvFrameDrop
	// EvAnswered: the issuing process read the query's declared result.
	EvAnswered
	// EvRetired: the engine retired the query's protocol state; Detail
	// says on what — "answered", "done" (the issuer said so), "timer".
	EvRetired
	// EvCompacted: the query's counters were folded to a ring summary.
	EvCompacted
	// EvQuiesce: a cross-process quiescence announce was sent (worker
	// side) or recorded (issuer side); Detail distinguishes
	// announce-quiet/announce-busy from peer-quiet/peer-busy.
	EvQuiesce
	// EvEarlyRead: AwaitQueryResult returned before the hard deadline
	// cap; Detail says which early path fired (counted, settle or
	// quiesce).
	EvEarlyRead
)

func (k EventKind) String() string {
	switch k {
	case EvIssued:
		return "issued"
	case EvFirstTraffic:
		return "first-traffic"
	case EvChurnLeave:
		return "churn-leave"
	case EvChurnJoin:
		return "churn-join"
	case EvFrameDrop:
		return "frame-drop"
	case EvAnswered:
		return "answered"
	case EvRetired:
		return "retired"
	case EvCompacted:
		return "compacted"
	case EvQuiesce:
		return "quiesce"
	case EvEarlyRead:
		return "early-read"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one recorded lifecycle event of one query.
type Event struct {
	Query int64 `json:"query"`
	Kind  EventKind
	// KindName is Kind rendered for JSON consumers (/debug/queries).
	KindName string `json:"kind"`
	// Host is the local host the event concerns, or -1 when the event is
	// query-wide (issued, retired, compacted).
	Host int `json:"host"`
	// Tick is the event time on the query's own clock, in δ ticks (0 when
	// the clock had not yet armed).
	Tick int64 `json:"tick"`
	// Chain is the causal depth carried by the wire frame the event
	// concerns (0 for query-wide lifecycle events). Query ticks are
	// per-process clocks armed at first traffic, so two processes can
	// stamp causally-ordered events with the same tick; the chain depth
	// breaks those ties when the fleet collector merges rings into one
	// cross-process timeline.
	Chain int `json:"chain,omitempty"`
	// Wall is the wall-clock stamp.
	Wall time.Time `json:"wall"`
	// Detail carries the drop reason or other short annotation.
	Detail string `json:"detail,omitempty"`
	// Count coalesces identical consecutive events (same kind, host, and
	// detail): a burst of straggler-frame drops becomes one ring entry
	// with a count instead of evicting the query's lifecycle history.
	Count int64 `json:"count"`
}

// queryTrace is one query's bounded event ring.
type queryTrace struct {
	query  int64
	events []Event // ring storage
	next   int
	full   bool
}

func (qt *queryTrace) record(ev Event) {
	// Coalesce with the newest event when kind, host, and detail match:
	// drop storms must not wash lifecycle events off the ring.
	if last := qt.last(); last != nil &&
		last.Kind == ev.Kind && last.Host == ev.Host && last.Detail == ev.Detail {
		last.Count++
		last.Wall = ev.Wall
		last.Tick = ev.Tick
		last.Chain = ev.Chain
		return
	}
	ev.Count = 1
	qt.events[qt.next] = ev
	qt.next++
	if qt.next == len(qt.events) {
		qt.next, qt.full = 0, true
	}
}

// last returns a pointer to the most recently recorded event (nil when
// empty).
func (qt *queryTrace) last() *Event {
	if qt.next == 0 {
		if !qt.full {
			return nil
		}
		return &qt.events[len(qt.events)-1]
	}
	return &qt.events[qt.next-1]
}

// list returns the events oldest-first.
func (qt *queryTrace) list() []Event {
	var out []Event
	if qt.full {
		out = append(out, qt.events[qt.next:]...)
	}
	return append(out, qt.events[:qt.next]...)
}

// Tracer records per-query lifecycle events on bounded rings: at most
// maxQueries queries are tracked (oldest evicted first), each holding at
// most perQuery events (oldest evicted first, with identical consecutive
// events coalesced into one counted entry). A nil *Tracer is the disabled
// form: Record costs one branch, readers return nothing.
//
// Events are low-rate lifecycle transitions, not per-frame traffic, so a
// single mutex is cheap; the bounded rings make the tracer safe to leave
// on in a fleet answering an unbounded query stream.
type Tracer struct {
	mu        sync.Mutex
	perQuery  int
	maxQuery  int
	traces    map[int64]*queryTrace
	order     []int64 // insertion order, for eviction
	nowFn     func() time.Time
	dropEvict *Counter // optional: counts queries evicted from the tracer
}

// NewTracer returns a tracer bounded to maxQueries query rings of
// perQuery events each. Non-positive arguments take defaults (256
// queries × 64 events).
func NewTracer(maxQueries, perQuery int) *Tracer {
	if maxQueries <= 0 {
		maxQueries = 256
	}
	if perQuery <= 0 {
		perQuery = 64
	}
	return &Tracer{
		perQuery: perQuery,
		maxQuery: maxQueries,
		traces:   make(map[int64]*queryTrace, maxQueries),
		nowFn:    time.Now,
	}
}

// Record appends one event to query q's ring (no-op on a nil tracer).
// The Wall stamp is taken here; callers fill Kind, Host, Tick, Detail.
// Events with no frame in hand carry chain 0 — use RecordChain when the
// causal depth is known.
func (t *Tracer) Record(q int64, kind EventKind, host int, tick int64, detail string) {
	t.RecordChain(q, kind, host, tick, 0, detail)
}

// RecordChain is Record with the wire frame's causal depth attached, the
// stamp the fleet merger uses to order same-tick events across processes.
func (t *Tracer) RecordChain(q int64, kind EventKind, host int, tick int64, chain int, detail string) {
	if t == nil {
		return
	}
	ev := Event{Query: q, Kind: kind, Host: host, Tick: tick, Chain: chain, Detail: detail}
	t.mu.Lock()
	defer t.mu.Unlock()
	ev.Wall = t.nowFn()
	qt, ok := t.traces[q]
	if !ok {
		if len(t.order) >= t.maxQuery {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, oldest)
			t.dropEvict.Inc()
		}
		qt = &queryTrace{query: q, events: make([]Event, t.perQuery)}
		t.traces[q] = qt
		t.order = append(t.order, q)
	}
	qt.record(ev)
}

// Events returns query q's recorded events, oldest first (nil for an
// untracked query or a nil tracer).
func (t *Tracer) Events(q int64) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	qt, ok := t.traces[q]
	if !ok {
		return nil
	}
	out := qt.list()
	for i := range out {
		out[i].KindName = out[i].Kind.String()
	}
	return out
}

// Queries returns the tracked query ids, oldest first.
func (t *Tracer) Queries() []int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int64, len(t.order))
	copy(out, t.order)
	return out
}
