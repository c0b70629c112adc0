// Package daemon is the engine behind cmd/validityd: it turns a topology,
// a shard assignment, and a transport choice into a long-running fleet of
// hosts answering WILDFIRE aggregate queries with Single-Site Validity
// reporting against the oracle.
//
// Every participating process is given the same topology (a generator
// kind + seed, or an edge-list file) and the same host→address map, and
// serves a disjoint subset of hosts. Worker processes serve indefinitely;
// the process given -query issues a stream of queries (-queries N, up to
// -concurrency K in flight) over the same fleet without any restarts.
// Query i's spec — aggregate kind and querying host, cycled from the
// comma-separated -agg and -hq lists — is derived from the query id and
// the shared flags alone, so every process lazily instantiates an
// identical protocol instance on first contact with a query's frames.
// Dynamism is per query: -kill names explicit membership events —
// host@tick departures and +host@tick joins (late joiners absent until
// they arrive, rebirths of hosts that left earlier) — and -churn draws
// them from a generated model (uniform removal, exponential sessions
// with optional join=D rebirth, a correlated burst, or a recorded
// trace=FILE with an optional leave/join event column), all in ticks of
// each query's own clock. Every process derives every query's timeline
// from the shared seed and the query id alone — workers enforce it
// locally, the issuer's oracle judges against it, and no churn
// coordination ever crosses the wire. Each
// query's declared result is read adaptively — at quiescence, with the
// 2D̂δ deadline as the hard cap — and printed next to the oracle's
// q(H_C) / q(H_U) bounds for its own membership timeline along with its
// own §6.3 cost counters (messages, bytes on the wire, computation, time)
// and issue-to-answer latency, and a throughput summary closes the
// stream. With -transport chan the same binary answers the queries fully
// in process — the zero-config smoke test of the exact code path the
// fleet runs.
//
// -continuous switches the fleet to the §4.2 streaming mode
// (internal/stream): the -query process runs one continuous query as a
// deterministic family of per-window engine sub-queries — window k is
// query stream.WindowID(1, k), opened at stream tick k·W by the runtime's
// timer heap — and prints one line per window, in window order, each
// judged against that window's own H_C/H_U. -windows N sets the window
// count, -window W the window length in ticks (≥ 2·D̂; 0 means exactly
// 2·D̂). Churn flags move to the stream's absolute clock and the plan
// slices them per window. Workers need nothing new: handed the same
// flags, they materialize window instances on first contact from seed +
// query id + window index alone, so no churn or window coordination ever
// crosses the wire in this mode either.
//
// The logic lives in this package (rather than in cmd/validityd's main)
// so the multi-process end-to-end tests can re-exec the test binary as a
// fleet of real OS processes without building the daemon first.
package daemon

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/node"
	"validity/internal/obs"
	"validity/internal/obs/fleet"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/stream"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/zipfval"
)

// Config is one validityd process's configuration.
type Config struct {
	// Topology selects a §6.1 generator (random | power-law | grid |
	// gnutella); TopoFile overrides it with an edge-list file. Every
	// process must use identical settings — the graph is regenerated
	// locally from the shared seed, never shipped.
	Topology string
	TopoFile string
	Hosts    int
	Seed     int64

	// Transport is "chan" (all hosts in this process) or "tcp" (hosts
	// sharded across processes per Peers/Serve).
	Transport string
	// Peers maps host ranges to addresses: "0-19=127.0.0.1:7001,20-39=…".
	// Every host must be covered (tcp only).
	Peers string
	// Serve lists the hosts this process runs: "20-39" or "0,5,7-9"
	// (tcp only; chan serves everything).
	Serve string

	// Query makes this process issue the query stream; other processes
	// serve their hosts (indefinitely, unless RunFor bounds them).
	Query bool
	// Hq is a comma-separated list of querying hosts; query i uses entry
	// i mod len. Every listed host must be served by the -query process.
	Hq string
	// Agg is a comma-separated list of aggregates; query i uses entry
	// i mod len.
	Agg string
	// Queries is the number of queries the -query process issues.
	Queries int
	// Concurrency bounds how many queries are in flight at once.
	Concurrency int
	// Continuous switches the fleet to the §4.2 streaming mode: the
	// -query process runs one continuous query as a family of per-window
	// engine sub-queries (internal/stream) and reports one line per
	// window against that window's own H_C/H_U bounds. Workers given the
	// same flags serve the windows like any other queries — window
	// instances materialize on first contact from seed + query id +
	// window index alone.
	Continuous bool
	// Windows is the number of windows N a continuous query streams
	// (0 = 8).
	Windows int
	// Window is the window length W in δ ticks; 0 means the §4.2 minimum
	// 2·D̂.
	Window int
	// DHat is the stable-diameter overestimate D̂; 0 derives diameter+2
	// from the topology.
	DHat    int
	Vectors int
	// Hop is the wall-clock realization of the per-hop bound δ.
	Hop time.Duration

	// Kill schedules membership events, "host@tick,+host@tick", ticks on
	// each query's own clock: every query of the stream sees the named
	// hosts leave (bare entries, §3.2) or join ("+" entries — a host with
	// no earlier event of its own is a late joiner, absent from tick 0
	// until it arrives) at the named ticks of its own timeline. Entries
	// for hosts served here are enforced; all entries feed each query's
	// oracle timeline, so every process can be handed the same flag.
	Kill string

	// Churn selects a generated membership model applied per query
	// (churn.ParseSource grammar): "rate=R[,window=W]" removes R hosts
	// uniformly over [0,W] ticks of each query's clock (window defaults
	// to the query deadline); "model=sessions,mean=M[,join=D][,window=W]"
	// draws exponential lifetimes with mean M ticks, and join=D adds
	// rebirth — departed hosts return after exponential downtimes of mean
	// D ticks; "model=burst,hosts=A-B,at=T" drops the contiguous range
	// A..B at one tick (rack-loss style). Each query's timeline is
	// derived from the shared seed and the query id alone, so workers
	// regenerate identical timelines with no coordination messages.
	Churn string

	// Shards is the number of worker goroutines executing host callbacks
	// in the engine (node.Config.Shards): 0 defaults to one per available
	// CPU, clamped to the local host count. The knob that lets one process
	// serve thousands of hosts without a goroutine per host.
	Shards int
	// MaxLiveQueries caps queries with live state per process
	// (node.Config.MaxLiveQueries): 0 applies the engine default, negative
	// disables the cap. Instantiation beyond it is rejected and counted on
	// engine_queries_rejected_total.
	MaxLiveQueries int

	// RunFor bounds a non-query process's lifetime (0 = serve forever).
	RunFor time.Duration

	// Metrics, when non-empty, serves the observability endpoints on this
	// address: Prometheus text exposition on /metrics, typed JSON snapshots
	// on /debug/snapshot and /debug/trace, a JSON snapshot of live and
	// retired queries on /debug/queries, and net/http/pprof under
	// /debug/pprof/. Port 0 picks a free port; the bound address is logged.
	Metrics string
	// Fleet lists the whole fleet's -metrics addresses — comma-separated
	// "host:port" or "name=host:port" entries, so a -peers-style map with
	// ports swapped pastes straight in. It arms the cross-process half of
	// the observability plane: /metrics/fleet serves the fleet-rolled-up
	// exposition (counters summed, histograms bucket-merged so fleet
	// quantiles are real), and a slow query's dump merges the trace rings
	// of every listed process into one causally-ordered timeline. A peer
	// that is down degrades that peer's contribution, never the scrape.
	Fleet string
	// LogLevel filters the diagnostic log on stderr: debug | info | warn |
	// error ("" = info). Result lines on stdout are unaffected.
	LogLevel string
	// SlowQuery is the issue→answer latency above which a query's trace
	// ring is dumped at warn level; 0 derives 1.5× the query's wall-clock
	// termination deadline 2·D̂δ.
	SlowQuery time.Duration

	// Obs and Trace override the process's metrics registry and query
	// tracer (the bench harness injects a registry to read the latency
	// histograms). Nil means Run creates its own — every daemon process is
	// instrumented; -metrics only controls the HTTP endpoint.
	Obs   *obs.Registry
	Trace *obs.Tracer

	// Out receives the report lines (defaults to os.Stdout). LogOut
	// receives the diagnostic slog lines (defaults to os.Stderr), kept
	// separate so the machine-parsed result lines stay byte-stable.
	Out    io.Writer
	LogOut io.Writer
}

// Flags binds a Config to a FlagSet, so cmd/validityd and the test
// harness parse identically.
func Flags(fs *flag.FlagSet) *Config {
	cfg := &Config{}
	fs.StringVar(&cfg.Topology, "topology", "random", "random | power-law | grid | gnutella")
	fs.StringVar(&cfg.TopoFile, "topology-file", "", "edge-list file overriding -topology")
	fs.IntVar(&cfg.Hosts, "hosts", 100, "network size |H| (generated topologies)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "shared seed: topology, values, sketch coin tosses")
	fs.StringVar(&cfg.Transport, "transport", "chan", "chan (in-process) | tcp (sharded fleet)")
	fs.StringVar(&cfg.Peers, "peers", "", "host→address map, e.g. 0-19=127.0.0.1:7001,20-39=127.0.0.1:7002")
	fs.StringVar(&cfg.Serve, "serve", "", "hosts this process serves, e.g. 20-39")
	fs.BoolVar(&cfg.Query, "query", false, "issue the query stream and report results")
	fs.StringVar(&cfg.Hq, "hq", "0", "querying host(s), comma-separated; query i uses entry i mod len")
	fs.StringVar(&cfg.Agg, "agg", "count", "aggregate(s) min|max|count|sum|avg, comma-separated; query i uses entry i mod len")
	fs.IntVar(&cfg.Queries, "queries", 1, "number of queries to issue (query process only)")
	fs.IntVar(&cfg.Concurrency, "concurrency", 1, "maximum queries in flight at once")
	fs.BoolVar(&cfg.Continuous, "continuous", false, "stream one continuous §4.2 query as per-window sub-queries")
	fs.IntVar(&cfg.Windows, "windows", 0, "continuous: number of windows to stream (0 = 8)")
	fs.IntVar(&cfg.Window, "window", 0, "continuous: window length W in δ ticks (0 = 2·D̂, the §4.2 minimum)")
	fs.IntVar(&cfg.DHat, "dhat", 0, "stable-diameter overestimate D̂ (0 = diameter+2)")
	fs.IntVar(&cfg.Vectors, "c", 64, "FM sketch repetitions for count/sum/avg")
	fs.DurationVar(&cfg.Hop, "hop", 5*time.Millisecond, "wall-clock per-hop delay bound δ")
	fs.StringVar(&cfg.Kill, "kill", "", "membership events host@tick (leave, §3.2) and +host@tick (join), per query on its own clock")
	fs.StringVar(&cfg.Churn, "churn", "", "per-query churn model: rate=R[,window=W], model=sessions,mean=M[,join=D][,window=W], model=burst,hosts=A-B,at=T, or trace=FILE (ticks on each query's clock)")
	fs.IntVar(&cfg.Shards, "shards", 0, "engine worker goroutines sharding the local hosts (0 = one per CPU)")
	fs.IntVar(&cfg.MaxLiveQueries, "max-live-queries", 0, "admission cap on queries with live state per process (0 = engine default, <0 = unlimited)")
	fs.DurationVar(&cfg.RunFor, "run-for", 0, "serving lifetime of a non-query process (0 = forever)")
	fs.StringVar(&cfg.Metrics, "metrics", "", "serve /metrics, /debug/queries, /debug/snapshot, /debug/trace, and /debug/pprof/ on this address (e.g. 127.0.0.1:7190; port 0 picks one)")
	fs.StringVar(&cfg.Fleet, "fleet", "", "every fleet member's -metrics address (host:port or name=host:port, comma-separated): serves /metrics/fleet and merges slow-query traces across processes")
	fs.StringVar(&cfg.LogLevel, "log-level", "info", "diagnostic log level on stderr: debug | info | warn | error")
	fs.DurationVar(&cfg.SlowQuery, "slow-query", 0, "dump a query's trace when issue→answer latency exceeds this (0 = 1.5× the 2·D̂δ deadline)")
	return cfg
}

// ParseArgs parses command-line arguments into a Config.
func ParseArgs(name string, args []string) (*Config, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	cfg := Flags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return cfg, nil
}

// validate rejects flag combinations that would otherwise be silently
// ignored.
func validate(cfg *Config) error {
	switch cfg.Transport {
	case "chan":
		if cfg.Peers != "" || cfg.Serve != "" {
			return fmt.Errorf("daemon: -peers/-serve apply only to -transport tcp (chan serves every host in process)")
		}
	case "tcp":
		if cfg.Peers == "" || cfg.Serve == "" {
			return fmt.Errorf("daemon: -transport tcp needs -peers and -serve")
		}
	default:
		return fmt.Errorf("daemon: unknown transport %q", cfg.Transport)
	}
	if cfg.Query && cfg.RunFor != 0 {
		return fmt.Errorf("daemon: -run-for applies only to worker processes; the -query process exits after its query stream")
	}
	if !cfg.Query && (cfg.Queries != 1 || cfg.Concurrency != 1) {
		return fmt.Errorf("daemon: -queries/-concurrency apply only to the -query process")
	}
	if cfg.Queries < 1 {
		return fmt.Errorf("daemon: -queries must be ≥ 1, got %d", cfg.Queries)
	}
	if cfg.Concurrency < 1 {
		return fmt.Errorf("daemon: -concurrency must be ≥ 1, got %d", cfg.Concurrency)
	}
	if !cfg.Continuous && (cfg.Windows != 0 || cfg.Window != 0) {
		return fmt.Errorf("daemon: -windows/-window apply only with -continuous")
	}
	if cfg.Continuous {
		if cfg.Queries != 1 || cfg.Concurrency != 1 {
			return fmt.Errorf("daemon: -queries/-concurrency apply to one-shot streams; -continuous runs one windowed query")
		}
		if cfg.Windows < 0 {
			return fmt.Errorf("daemon: -windows must be ≥ 1, got %d", cfg.Windows)
		}
		if cfg.Windows == 0 {
			cfg.Windows = 8
		}
		if cfg.Window < 0 {
			return fmt.Errorf("daemon: -window must be ≥ 0 ticks, got %d", cfg.Window)
		}
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("daemon: -shards must be ≥ 0, got %d", cfg.Shards)
	}
	if cfg.Fleet != "" && cfg.Metrics == "" && !cfg.Query {
		// The collector feeds /metrics/fleet (needs -metrics) and the
		// merged slow-query dump (needs -query); with neither it would be
		// parsed and never used.
		return fmt.Errorf("daemon: -fleet needs -metrics (to serve /metrics/fleet) or -query (to merge slow-query traces)")
	}
	if cfg.Vectors < 1 || cfg.Vectors > 255 {
		// The canonical wire format carries the repetition count in one
		// byte; beyond it the per-query bytes accounting could not cover
		// the traffic.
		return fmt.Errorf("daemon: -c must be in [1,255], got %d", cfg.Vectors)
	}
	return nil
}

// parseHostSet parses "0-19,25,40-44" into a sorted host list.
func parseHostSet(spec string, n int) ([]graph.HostID, error) {
	var out []graph.HostID
	seen := make(map[graph.HostID]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi := part, part
		if i := strings.IndexByte(part, '-'); i >= 0 {
			lo, hi = part[:i], part[i+1:]
		}
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("daemon: host set %q: %w", spec, err)
		}
		b, err := strconv.Atoi(hi)
		if err != nil {
			return nil, fmt.Errorf("daemon: host set %q: %w", spec, err)
		}
		if a > b || a < 0 || b >= n {
			return nil, fmt.Errorf("daemon: host range %q outside [0,%d)", part, n)
		}
		for h := a; h <= b; h++ {
			if !seen[graph.HostID(h)] {
				seen[graph.HostID(h)] = true
				out = append(out, graph.HostID(h))
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("daemon: empty host set %q", spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// parseHqList parses the -hq list, preserving order (query i uses entry
// i mod len, so order is part of the spec every process must share).
func parseHqList(spec string, n int) ([]graph.HostID, error) {
	var out []graph.HostID
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		h, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("daemon: -hq entry %q: %w", part, err)
		}
		if h < 0 || h >= n {
			return nil, fmt.Errorf("daemon: h_q %d outside graph of %d hosts", h, n)
		}
		out = append(out, graph.HostID(h))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("daemon: empty -hq list %q", spec)
	}
	return out, nil
}

// parseAggList parses the -agg list, preserving order.
func parseAggList(spec string) ([]agg.Kind, error) {
	var out []agg.Kind
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := agg.ParseKind(part)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("daemon: empty -agg list %q", spec)
	}
	return out, nil
}

// parsePeers expands the range=addr map into a per-host address table.
func parsePeers(spec string, n int) ([]string, error) {
	addrs := make([]string, n)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		i := strings.IndexByte(part, '=')
		if i < 0 {
			return nil, fmt.Errorf("daemon: peer entry %q is not range=addr", part)
		}
		hosts, err := parseHostSet(part[:i], n)
		if err != nil {
			return nil, err
		}
		addr := strings.TrimSpace(part[i+1:])
		if addr == "" {
			return nil, fmt.Errorf("daemon: peer entry %q has empty address", part)
		}
		for _, h := range hosts {
			addrs[h] = addr
		}
	}
	for h, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("daemon: host %d has no address in -peers", h)
		}
	}
	return addrs, nil
}

// parseKills parses the -kill grammar — "host@tick" departures and
// "+host@tick" joins — via the membership layer's event parser.
func parseKills(spec string, n int) (churn.Timeline, error) {
	tl, err := churn.ParseEvents(spec, n)
	if err != nil {
		return nil, fmt.Errorf("daemon: -kill: %w", err)
	}
	return tl, nil
}

// churnPlan is the daemon's slice of the membership layer: the static
// -kill events (departures and joins) plus the generated -churn Source,
// combined into one membership timeline per query. A query's timeline
// depends only on the shared flags, the shared seed, and the query id —
// every process of the fleet regenerates the identical timeline, so the
// issuer's oracle judges exactly the membership the workers enforce,
// with no churn coordination messages on the wire.
type churnPlan struct {
	seed   int64
	static churn.Timeline
	src    churn.Source
}

func newChurnPlan(cfg *Config, n int) (*churnPlan, error) {
	static, err := parseKills(cfg.Kill, n)
	if err != nil {
		return nil, err
	}
	src, err := churn.ParseSource(cfg.Churn, n)
	if err != nil {
		return nil, err
	}
	return &churnPlan{seed: cfg.Seed, static: static, src: src}, nil
}

// active reports whether any dynamism is configured.
func (p *churnPlan) active() bool { return len(p.static) > 0 || p.src != nil }

// forQuery derives query id's membership timeline, in ticks of that
// query's own clock, protecting its querying host from the generated
// model.
func (p *churnPlan) forQuery(id node.QueryID, hq graph.HostID, deadline sim.Time) churn.Timeline {
	sched := churn.Static(p.static).Schedule(0, hq, deadline)
	if p.src != nil {
		sched = churn.Merge(sched, p.src.Schedule(churn.QuerySeed(p.seed, int64(id)), hq, deadline))
	}
	return sched
}

// buildGraph regenerates the shared topology.
func buildGraph(cfg *Config) (*graph.Graph, error) {
	if cfg.TopoFile != "" {
		f, err := os.Open(cfg.TopoFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.LoadEdgeList(f)
	}
	kind, err := topology.ParseKind(cfg.Topology)
	if err != nil {
		return nil, err
	}
	if cfg.Hosts < 2 {
		return nil, fmt.Errorf("daemon: need ≥ 2 hosts, got %d", cfg.Hosts)
	}
	return topology.Generate(kind, cfg.Hosts, cfg.Seed), nil
}

// Run executes one validityd process: workers serve until RunFor (or
// forever), the query process drives its stream to completion.
func Run(cfg *Config) error {
	out := cfg.Out
	if out == nil {
		out = os.Stdout
	}
	logOut := cfg.LogOut
	if logOut == nil {
		logOut = os.Stderr
	}
	level, err := obs.ParseLevel(cfg.LogLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(logOut, level)
	// Every daemon process is instrumented — a registry and tracer cost one
	// atomic add per hot-path event — and -metrics merely decides whether
	// they are scrapeable. Tests and the bench harness inject their own.
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Trace
	if tracer == nil {
		tracer = obs.NewTracer(0, 0) // defaults
	}
	if err := validate(cfg); err != nil {
		return err
	}
	// The fleet collector scrapes every listed process's /debug/snapshot
	// and /debug/trace; nil when -fleet is unset, and every consumer
	// degrades to the local-only view.
	var coll *fleet.Collector
	if cfg.Fleet != "" {
		srcs, err := fleet.ParseSources(cfg.Fleet)
		if err != nil {
			return fmt.Errorf("daemon: -fleet: %w", err)
		}
		coll = &fleet.Collector{Sources: srcs}
	}
	g, err := buildGraph(cfg)
	if err != nil {
		return err
	}
	n := g.Len()
	values := zipfval.Default(cfg.Seed).Values(n)
	aggs, err := parseAggList(cfg.Agg)
	if err != nil {
		return err
	}
	hqs, err := parseHqList(cfg.Hq, n)
	if err != nil {
		return err
	}
	dHat := cfg.DHat
	if dHat == 0 {
		dHat = g.Diameter(nil) + 2
	}
	plan, err := newChurnPlan(cfg, n)
	if err != nil {
		return err
	}
	// A query is issued AT h_q at time 0, so no querying host may be a
	// late joiner of the static -kill timeline (generated models already
	// protect h_q; continuous mode rejects any h_q event via the plan).
	// Checked on every process — the flags are shared, so issuer and
	// workers fail identically instead of hanging a query.
	staticIx := plan.static.Index()
	for _, hq := range hqs {
		if !staticIx.InitialMember(hq) {
			return fmt.Errorf("daemon: -kill schedules querying host %d as a late joiner; every -hq host must be present when its query is issued", hq)
		}
	}

	var (
		tr     transport.Transport
		local  []graph.HostID // nil = all
		roster []int          // host→process index, tcp only
	)
	switch cfg.Transport {
	case "chan":
		// δ is a bound (§3.1): delivery at δ/2 leaves room for queueing
		// and handler processing under it — the margin a deployment would
		// engineer between observed latency and the δ it advertises.
		tr = transport.NewChannel(n, cfg.Hop/2)
	case "tcp":
		addrs, err := parsePeers(cfg.Peers, n)
		if err != nil {
			return err
		}
		if local, err = parseHostSet(cfg.Serve, n); err != nil {
			return err
		}
		// The host→process roster the quiescence plane needs falls out
		// of -peers: hosts sharing a transport address share a process.
		// Indexing by first appearance gives every process the identical
		// numbering from the identical flag.
		procIdx := make(map[string]int)
		roster = make([]int, n)
		for h, a := range addrs {
			p, ok := procIdx[a]
			if !ok {
				p = len(procIdx)
				procIdx[a] = p
			}
			roster[h] = p
		}
		tcp := transport.NewTCP(addrs)
		tcp.Obs = reg
		tcp.Log = logger
		tr = tcp
	}

	rt, err := node.New(node.Config{
		Graph:          g,
		Values:         values,
		Transport:      tr,
		Hop:            cfg.Hop,
		Local:          local,
		Shards:         cfg.Shards,
		MaxLiveQueries: cfg.MaxLiveQueries,
		Quiesce:        true,
		Roster:         roster,
		Obs:            reg,
		Trace:          tracer,
	})
	if err != nil {
		return err
	}
	if cfg.Query {
		for _, hq := range hqs {
			if !rt.Local(hq) {
				return fmt.Errorf("daemon: -query requires every -hq host in -serve; %d is not", hq)
			}
		}
	}

	// specFor derives query id's spec from the shared flags alone, so
	// every process of the fleet — issuer and workers alike — builds the
	// identical protocol instance for a query the moment its first frame
	// arrives.
	specFor := func(id node.QueryID) protocol.Query {
		i := int(id-1) % len(aggs)
		j := int(id-1) % len(hqs)
		return protocol.Query{
			Kind:   aggs[i],
			Hq:     hqs[j],
			DHat:   dHat,
			Params: agg.Params{Vectors: cfg.Vectors, Bits: 32},
		}
	}
	// The continuous-query plan: identical on every process handed the
	// same flags, exactly like a one-shot query spec. The base query id is
	// 1; dynamism moves to the stream's absolute clock (static -kill
	// entries and the -churn source span the whole N·W-tick run and are
	// sliced per window by the plan).
	var splan *stream.Plan
	if cfg.Continuous {
		splan = &stream.Plan{
			Query:     1,
			Spec:      specFor(1),
			WindowLen: sim.Time(cfg.Window),
			Windows:   cfg.Windows,
			Seed:      cfg.Seed,
			Static:    plan.static,
			Source:    plan.src,
		}
		if err := splan.Validate(); err != nil {
			return err
		}
	}

	// The factory attaches each query's membership timeline to its
	// instance: the node engine enforces it on the local hosts (a host is
	// dead for a query once that query's schedule says so), and because
	// every process derives the identical schedule from seed + id, issuer
	// and workers agree without exchanging a single churn message. Window
	// ids of a continuous query dispatch to the stream plan — a worker
	// serves windows exactly as it serves one-shot queries, materializing
	// each on first contact.
	var windowFactory node.QueryFactory
	if splan != nil {
		windowFactory = splan.Factory(rt)
	}
	rt.SetQueryFactory(func(id node.QueryID) (*node.QueryInstance, error) {
		if _, _, isWindow := stream.SplitWindowID(id); isWindow {
			if windowFactory == nil {
				return nil, fmt.Errorf("daemon: window frame for query %d but this process was not started with -continuous", id)
			}
			return windowFactory(id)
		}
		spec := specFor(id)
		inst, err := node.BuildInstance(rt, protocol.NewWildfire(spec), node.QuerySeed(cfg.Seed, id))
		if err != nil {
			return nil, err
		}
		inst.Churn = plan.forQuery(id, spec.Hq, spec.Deadline())
		inst.Origin = spec.Hq
		return inst, nil
	})
	if err := rt.Start(); err != nil {
		return err
	}
	defer rt.Stop()
	if cfg.Metrics != "" {
		stop, err := startMetricsServer(cfg.Metrics, rt, reg, tracer, coll, logger)
		if err != nil {
			return fmt.Errorf("daemon: -metrics %s: %w", cfg.Metrics, err)
		}
		defer stop()
	}
	served := n
	if local != nil {
		served = len(local)
	}
	logger.Debug("engine started", "hosts", served, "of", n,
		"transport", cfg.Transport, "hop", cfg.Hop.String())

	if !cfg.Query {
		lifetime := "indefinitely"
		if cfg.RunFor > 0 {
			lifetime = "for " + cfg.RunFor.String()
		}
		fmt.Fprintf(out, "validityd: serving %d/%d hosts over %s %s\n",
			served, n, cfg.Transport, lifetime)
		if cfg.RunFor > 0 {
			time.Sleep(cfg.RunFor)
		} else {
			select {} // serve until killed
		}
		return nil
	}

	churnNote := ""
	if plan.active() {
		churnNote = fmt.Sprintf(", churn kill=%q model=%q", cfg.Kill, cfg.Churn)
	}
	if cfg.Continuous {
		fmt.Fprintf(out, "validityd: continuous wildfire over %d hosts, D̂=%d, δ=%v, transport=%s: %d windows of %d ticks, agg=%s, hq=%d%s\n",
			n, dHat, cfg.Hop, cfg.Transport, splan.Windows, splan.WindowLen, splan.Spec.Kind, splan.Spec.Hq, churnNote)
		return runContinuous(cfg, rt, splan, out)
	}
	fmt.Fprintf(out, "validityd: wildfire over %d hosts, D̂=%d, δ=%v, transport=%s: %d queries, concurrency %d, agg=%s, hq=%s%s\n",
		n, dHat, cfg.Hop, cfg.Transport, cfg.Queries, cfg.Concurrency, cfg.Agg, cfg.Hq, churnNote)
	return runQueryStream(cfg, rt, g, values, plan, specFor, out, logger, tracer, coll)
}

// runContinuous drives one continuous query over the running engine: the
// stream opens window k's sub-query at stream tick k·W on the runtime's
// timer heap, reads each window at quiescence (deadline-capped), and this
// loop prints one line per window — in window order, each against the
// window's own H_C/H_U — then a windows/sec summary.
func runContinuous(cfg *Config, rt *node.Runtime, splan *stream.Plan, out io.Writer) error {
	start := time.Now()
	s, err := stream.Start(rt, splan)
	if err != nil {
		return err
	}
	var (
		windows    int
		valid      int
		totalMsgs  int64
		totalBytes int64
	)
	for r := range s.Results() {
		if r.Err != nil {
			return r.Err
		}
		windows++
		if r.Valid {
			valid++
		}
		totalMsgs += r.Stats.MessagesSent
		totalBytes += r.Stats.BytesOnWire
		// pop= is the window's own |H_U| — everyone who is a member at
		// some instant of it — so a run with arrivals shows the
		// population growing window over window, not just shrinking.
		fmt.Fprintf(out,
			"validityd: q=%d window=%d span=[%d,%d) agg=%s hq=%d pop=%d result=%.2f lower=%.2f upper=%.2f matched=[%.2f,%.2f] valid=%t msgs=%d bytes=%d lat=%dms\n",
			splan.Query, r.Window, r.Start, r.End, splan.Spec.Kind, splan.Spec.Hq, r.HU,
			r.Value, r.Lower, r.Upper, r.MatchedLower, r.MatchedUpper, r.Valid,
			r.Stats.MessagesSent, r.Stats.BytesOnWire, r.Latency.Milliseconds())
	}
	elapsed := time.Since(start)
	if windows != splan.Windows {
		return fmt.Errorf("daemon: stream delivered %d of %d windows", windows, splan.Windows)
	}
	fmt.Fprintf(out, "validityd: streamed %d windows (%d valid) in %v (%.2f windows/sec) msgs=%d bytes=%d\n",
		windows, valid, elapsed.Round(time.Millisecond),
		float64(windows)/elapsed.Seconds(), totalMsgs, totalBytes)
	if valid != windows {
		return fmt.Errorf("daemon: %d of %d windows judged invalid", windows-valid, windows)
	}
	return nil
}

// runQueryStream issues cfg.Queries queries over the running engine, up to
// cfg.Concurrency in flight, printing each result against the oracle
// bounds of its own membership timeline and a closing throughput summary.
func runQueryStream(cfg *Config, rt *node.Runtime, g *graph.Graph, values []int64,
	plan *churnPlan, specFor func(node.QueryID) protocol.Query, out io.Writer,
	logger *slog.Logger, tracer *obs.Tracer, coll *fleet.Collector) error {

	// Issue→answer latency feeds the same histogram type the engine's
	// exposition serves; the bench harness reads its quantiles for the
	// latency_ms_p50/p95/p99 report keys.
	lath := rt.Obs().Histogram("daemon_query_latency_ms",
		"Issue to answer-in-hand wall time of one-shot queries, ms.", obs.LatencyBucketsMs)
	var (
		mu         sync.Mutex // serializes result lines and totals
		firstErr   error
		valid      int
		totalMsgs  int64
		totalBytes int64
		wg         sync.WaitGroup
	)
	sem := make(chan struct{}, cfg.Concurrency)
	start := time.Now()
	for i := 1; i <= cfg.Queries; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(id node.QueryID) {
			defer wg.Done()
			defer func() { <-sem }()
			spec := specFor(id)
			qStart := time.Now()
			if _, err := rt.StartQuery(id); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			// Adaptive result read: in process the wait ends when nothing
			// of the query is outstanding; on a sharded fleet, after the
			// protocol deadline or the peers' quiet claims, when local
			// traffic has settled — the answer is in hand when the query
			// converges, not when the worst-case budget expires. The old
			// sleep-out-the-deadline budget stays as the hard cap.
			floor, settle, hardCap := rt.AwaitBracket(spec.Deadline())
			v, ok, err := rt.AwaitQueryResult(id, spec.Hq, floor, settle, hardCap)
			if err == nil && !ok {
				err = fmt.Errorf("daemon: query %d declared no result at h_q=%d", id, spec.Hq)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			// Latency is issue-to-answer-in-hand wall time and now tracks
			// actual convergence (the warm-dial guarantee is pinned at the
			// transport layer, TestTCPWarmPreDials, and at runtime boot,
			// TestRuntimeWarmsTransportAtStart).
			lat := time.Since(qStart)
			lath.Observe(float64(lat) / float64(time.Millisecond))
			if cfg.Hop > 0 {
				tracer.Record(int64(id), obs.EvAnswered, -1, int64(lat/cfg.Hop), "")
			}
			if threshold := slowThreshold(cfg, time.Duration(spec.Deadline())*cfg.Hop); lat > threshold {
				logSlowQuery(logger, rt, coll, id, lat, threshold)
			}
			// Each query is judged against its own H_C/H_U: the oracle is
			// handed the query's own schedule on the query's own clock, and
			// the coins its hosts drew.
			b := oracle.Compute(g, values, spec.Hq, plan.forQuery(id, spec.Hq, spec.Deadline()),
				spec.Deadline(), spec.Kind)
			m := b.Matched(values, spec.Params, node.QuerySeed(cfg.Seed, id))
			st, _ := rt.QueryStats(id)
			ok = m.Valid(v)
			mu.Lock()
			if ok {
				valid++
			}
			totalMsgs += st.MessagesSent
			totalBytes += st.BytesOnWire
			fmt.Fprintf(out,
				"validityd: q=%d agg=%s hq=%d result=%.2f lower=%.2f upper=%.2f matched=[%.2f,%.2f] valid=%t msgs=%d bytes=%d maxproc=%d timecost=%d lat=%dms\n",
				id, spec.Kind, spec.Hq, v, b.LowerValue, b.UpperValue, m.LowerValue, m.UpperValue, ok,
				st.MessagesSent, st.BytesOnWire, st.MaxComputation(), st.TimeCost,
				lat.Milliseconds())
			mu.Unlock()
		}(node.QueryID(i))
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}
	fmt.Fprintf(out, "validityd: served %d queries (%d valid) in %v (%.2f queries/sec) msgs=%d bytes=%d\n",
		cfg.Queries, valid, elapsed.Round(time.Millisecond),
		float64(cfg.Queries)/elapsed.Seconds(), totalMsgs, totalBytes)
	if valid != cfg.Queries {
		return fmt.Errorf("daemon: %d of %d queries judged invalid", cfg.Queries-valid, cfg.Queries)
	}
	return nil
}
