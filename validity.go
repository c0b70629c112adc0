// Package validity is a Go implementation of "The Price of Validity in
// Dynamic Networks" (Bawa, Gionis, Garcia-Molina, Motwani; SIGMOD 2004 /
// JCSS 2007): aggregate query processing over large, churning networks
// with Single-Site Validity guarantees.
//
// The package lets you build a (simulated) dynamic network, issue
// aggregate queries (min, max, count, sum, avg) through any of the
// paper's protocols, subject the network to churn, and check the result
// against the oracle's H_C/H_U validity bounds:
//
//	net, _ := validity.NewNetwork(validity.NetworkConfig{
//		Topology: validity.Gnutella,
//		Hosts:    10_000,
//		Seed:     1,
//	})
//	res, _ := net.Query(validity.QueryConfig{
//		Aggregate: validity.Count,
//		Protocol:  validity.Wildfire,
//		Failures:  500, // hosts leaving during the query
//	})
//	fmt.Println(res.Value, res.Valid, res.Messages)
//
// WILDFIRE returns valid answers even under heavy churn; the best-effort
// baselines (SpanningTree, DAG) are cheaper but may return answers
// arbitrarily far below the validity bounds (Theorem 4.4). The package
// exposes both so the price of validity can be measured directly.
package validity

import (
	"fmt"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// Aggregate selects the query: Min, Max, Count, Sum or Avg.
type Aggregate int

// Aggregates.
const (
	Min Aggregate = iota
	Max
	Count
	Sum
	Avg
)

func (a Aggregate) kind() (agg.Kind, error) {
	switch a {
	case Min:
		return agg.Min, nil
	case Max:
		return agg.Max, nil
	case Count:
		return agg.Count, nil
	case Sum:
		return agg.Sum, nil
	case Avg:
		return agg.Avg, nil
	}
	return 0, fmt.Errorf("validity: unknown aggregate %d", int(a))
}

// String returns the aggregate's name.
func (a Aggregate) String() string {
	k, err := a.kind()
	if err != nil {
		return fmt.Sprintf("Aggregate(%d)", int(a))
	}
	return k.String()
}

// ParseAggregate converts "min", "max", "count", "sum", "avg" to an
// Aggregate.
func ParseAggregate(s string) (Aggregate, error) {
	k, err := agg.ParseKind(s)
	if err != nil {
		return 0, err
	}
	return Aggregate(k), nil
}

// Protocol selects the query-processing scheme.
type Protocol int

// Protocols.
const (
	// Wildfire is the paper's validity-guaranteeing protocol (§5).
	Wildfire Protocol = iota
	// SpanningTree is the TAG-style best-effort baseline (§4.4).
	SpanningTree
	// DAG is the multi-parent best-effort baseline (§4.4); configure the
	// parent count with QueryConfig.DAGParents (default 2).
	DAG
	// AllReport is direct delivery (Fig. 2).
	AllReport
	// RandomizedReport samples reporters to estimate network size (§4.3).
	RandomizedReport
	// Gossip is the push-sum epidemic baseline of §2.2 (eventual
	// consistency, no per-answer validity); supports count/sum/avg.
	// Configure rounds with QueryConfig.GossipRounds (default 8·D̂).
	Gossip
)

// String returns the protocol's name.
func (p Protocol) String() string {
	switch p {
	case Wildfire:
		return "wildfire"
	case SpanningTree:
		return "spanningtree"
	case DAG:
		return "dag"
	case AllReport:
		return "allreport"
	case RandomizedReport:
		return "randomizedreport"
	case Gossip:
		return "gossip"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ParseProtocol converts a protocol name to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "wildfire":
		return Wildfire, nil
	case "spanningtree", "st":
		return SpanningTree, nil
	case "dag":
		return DAG, nil
	case "allreport":
		return AllReport, nil
	case "randomizedreport", "randomized":
		return RandomizedReport, nil
	case "gossip":
		return Gossip, nil
	}
	return 0, fmt.Errorf("validity: unknown protocol %q", s)
}

// Topology selects the network shape (§6.1).
type Topology int

// Topologies.
const (
	// Random is a uniform random graph with average degree 5.
	Random Topology = iota
	// PowerLaw has a power-law degree tail (γ ≈ 2.9).
	PowerLaw
	// Grid is a sensor field with 8-neighborhoods.
	Grid
	// Gnutella is a synthetic Gnutella-2001-like overlay.
	Gnutella
)

func (t Topology) kind() (topology.Kind, error) {
	switch t {
	case Random:
		return topology.Random, nil
	case PowerLaw:
		return topology.PowerLaw, nil
	case Grid:
		return topology.Grid, nil
	case Gnutella:
		return topology.Gnutella, nil
	}
	return 0, fmt.Errorf("validity: unknown topology %d", int(t))
}

// String returns the topology's name.
func (t Topology) String() string {
	k, err := t.kind()
	if err != nil {
		return fmt.Sprintf("Topology(%d)", int(t))
	}
	return k.String()
}

// NetworkConfig configures a simulated dynamic network.
type NetworkConfig struct {
	// Topology selects a generator; ignored when Edges is set.
	Topology Topology
	// Hosts is the network size |H| (Grid rounds down to a square).
	Hosts int
	// Edges, when non-nil, supplies a custom topology as an edge list
	// over hosts 0..Hosts-1 and overrides Topology.
	Edges [][2]int
	// Values are per-host attribute values; when nil they are drawn from
	// the paper's Zipf[10,500] distribution.
	Values []int64
	// Wireless enables sensor-radio accounting: one send-to-all-neighbors
	// costs one message (§5.3).
	Wireless bool
	// Seed makes topology, values and protocol randomness reproducible.
	Seed int64
}

// Network is an immutable topology plus attribute values from which many
// independent queries can be run.
type Network struct {
	g        *graph.Graph
	values   []int64
	wireless bool
	seed     int64
	diameter int
}

// NewNetwork builds a network from cfg.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Hosts < 1 {
		return nil, fmt.Errorf("validity: need at least one host, got %d", cfg.Hosts)
	}
	var g *graph.Graph
	if cfg.Edges != nil {
		g = graph.New(cfg.Hosts)
		for _, e := range cfg.Edges {
			if e[0] < 0 || e[0] >= cfg.Hosts || e[1] < 0 || e[1] >= cfg.Hosts {
				return nil, fmt.Errorf("validity: edge %v outside 0..%d", e, cfg.Hosts-1)
			}
			g.AddEdge(graph.HostID(e[0]), graph.HostID(e[1]))
		}
		g.SortAdjacency()
	} else {
		k, err := cfg.Topology.kind()
		if err != nil {
			return nil, err
		}
		g = topology.Generate(k, cfg.Hosts, cfg.Seed)
	}
	values := cfg.Values
	if values == nil {
		values = zipfval.Default(cfg.Seed).Values(g.Len())
	}
	if len(values) != g.Len() {
		return nil, fmt.Errorf("validity: %d values for %d hosts", len(values), g.Len())
	}
	return &Network{
		g:        g,
		values:   values,
		wireless: cfg.Wireless,
		seed:     cfg.Seed,
		diameter: g.DiameterSampled(2, nil),
	}, nil
}

// Hosts returns |H|.
func (n *Network) Hosts() int { return n.g.Len() }

// Edges returns |E|.
func (n *Network) Edges() int { return n.g.NumEdges() }

// Diameter returns the (sampled) diameter of the topology.
func (n *Network) Diameter() int { return n.diameter }

// Value returns host h's attribute value.
func (n *Network) Value(h int) int64 { return n.values[h] }

// Exact evaluates the aggregate exactly over all hosts' values — the
// failure-free ground truth.
func (n *Network) Exact(a Aggregate) (float64, error) {
	k, err := a.kind()
	if err != nil {
		return 0, err
	}
	return agg.Exact(k, n.values), nil
}

// QueryConfig configures one query run.
type QueryConfig struct {
	// Aggregate is the query (default Min = 0; set explicitly).
	Aggregate Aggregate
	// Protocol is the processing scheme (default Wildfire = 0).
	Protocol Protocol
	// Hq is the querying host (default 0).
	Hq int
	// DHat overestimates the stable diameter; 0 means diameter + 2.
	DHat int
	// Failures removes that many random hosts (never Hq) at a uniform
	// rate during the query interval (§6.2).
	Failures int
	// Schedule supplies explicit failures and overrides Failures.
	Schedule []Failure
	// DAGParents is k for Protocol == DAG (default 2).
	DAGParents int
	// SketchVectors is the FM repetition count c (default 8).
	SketchVectors int
	// ReportProbability is p for RandomizedReport; 0 derives it from
	// Epsilon/Zeta, which in turn default to 0.1/0.05.
	ReportProbability float64
	// GossipRounds is the round budget for Protocol == Gossip
	// (default 8·D̂, comfortably past push-sum's O(log n) convergence).
	GossipRounds int
	// Epsilon and Zeta parameterize Approximate Single-Site Validity for
	// RandomizedReport.
	Epsilon, Zeta float64
	// Seed overrides the network seed for this run's randomness.
	Seed int64
	// SkipOracle disables bound computation (large runs).
	SkipOracle bool
}

// Failure schedules a membership event for host H at virtual time T: a
// departure by default, an arrival when Join is set. A host whose first
// event is a join is a late joiner — absent from the network until it
// arrives, counted in H_U from then on (so H_U can exceed the initial
// host set); a join after a departure is the same host returning for
// another session.
type Failure struct {
	H    int
	T    int64
	Join bool
}

// Result is one query run's outcome.
type Result struct {
	// Value is the result declared at h_q.
	Value float64
	// Lower and Upper are the oracle's q(H_C) and q(H_U) bounds
	// (zero-valued when SkipOracle).
	Lower, Upper float64
	// HC and HU are the bound set sizes.
	HC, HU int
	// Valid reports whether Value lies within the Single-Site Validity
	// bounds in the protocol's own currency: WILDFIRE's and DAG's FM
	// estimates against the bounds their hosts' own coins give
	// (oracle.Bounds.Matched), RandomizedReport's sample within (1±Epsilon)
	// of Lower and Upper, every exact answer against Lower and Upper.
	Valid bool
	// Messages is the communication cost (§6.3).
	Messages int64
	// MaxComputation is the computation cost (§6.3).
	MaxComputation int64
	// TimeCost is the protocol's time cost: the longest causal message
	// chain, except for Wildfire which always runs to its 2D̂δ deadline
	// (§6.6.2).
	TimeCost int
	// PerTickMessages is the Fig. 13b trace.
	PerTickMessages []int64
	// Protocol and Aggregate echo the configuration.
	Protocol  Protocol
	Aggregate Aggregate
}

// Query runs one aggregate query on a fresh simulation of the network.
func (n *Network) Query(cfg QueryConfig) (*Result, error) {
	kind, err := cfg.Aggregate.kind()
	if err != nil {
		return nil, err
	}
	if cfg.Hq < 0 || cfg.Hq >= n.g.Len() {
		return nil, fmt.Errorf("validity: querying host %d outside network", cfg.Hq)
	}
	dHat := cfg.DHat
	if dHat == 0 {
		dHat = n.diameter + 2
	}
	vectors := cfg.SketchVectors
	if vectors == 0 {
		vectors = agg.DefaultParams().Vectors
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = n.seed + 1
	}
	q := protocol.Query{
		Kind:   kind,
		Hq:     graph.HostID(cfg.Hq),
		DHat:   dHat,
		Params: agg.Params{Vectors: vectors, Bits: agg.DefaultParams().Bits},
	}

	eps := cfg.Epsilon
	if eps == 0 {
		eps = 0.1
	}
	var p protocol.Protocol
	switch cfg.Protocol {
	case Wildfire:
		p = protocol.NewWildfire(q)
	case SpanningTree:
		p = protocol.NewSpanningTree(q)
	case DAG:
		k := cfg.DAGParents
		if k == 0 {
			k = 2
		}
		p = protocol.NewDAG(q, k)
	case AllReport:
		p = protocol.NewAllReport(q)
	case RandomizedReport:
		prob := cfg.ReportProbability
		if prob == 0 {
			zeta := cfg.Zeta
			if zeta == 0 {
				zeta = 0.05
			}
			prob = protocol.ReportProbability(eps, zeta, n.g.Len())
		}
		p = protocol.NewRandomizedReport(q, prob)
	case Gossip:
		rounds := cfg.GossipRounds
		if rounds == 0 {
			rounds = 8 * dHat
		}
		p = protocol.NewGossip(q, rounds)
	default:
		return nil, fmt.Errorf("validity: unknown protocol %d", int(cfg.Protocol))
	}

	medium := sim.MediumPointToPoint
	if n.wireless {
		medium = sim.MediumWireless
	}
	nw := sim.NewNetwork(sim.Config{Graph: n.g, Medium: medium, Seed: seed, Values: n.values})

	var sched churn.Timeline
	switch {
	case cfg.Schedule != nil:
		for _, f := range cfg.Schedule {
			if f.H < 0 || f.H >= n.g.Len() {
				return nil, fmt.Errorf("validity: failure host %d outside network", f.H)
			}
			sched = append(sched, eventOf(f))
		}
	case cfg.Failures > 0:
		if cfg.Failures >= n.g.Len() {
			return nil, fmt.Errorf("validity: cannot fail %d of %d hosts", cfg.Failures, n.g.Len())
		}
		// The same membership Source the live engine derives per-query
		// schedules from; here the event loop consumes it directly.
		src := churn.Uniform{N: n.g.Len(), Remove: cfg.Failures}
		sched = src.Schedule(seed, q.Hq, q.Deadline())
	}
	if !sched.Index().InitialMember(q.Hq) {
		// A query is issued AT h_q at time 0; a host that has not arrived
		// yet cannot issue it (a continuous stream.Plan rejects the same
		// misconfiguration).
		return nil, fmt.Errorf("validity: querying host %d scheduled as a late joiner; it must be present when the query is issued", q.Hq)
	}
	sched.Apply(nw)

	v, stats, err := protocol.Run(p, nw)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Value:           v,
		Messages:        stats.MessagesSent,
		MaxComputation:  stats.MaxComputation(),
		TimeCost:        stats.TimeCost,
		PerTickMessages: append([]int64(nil), stats.PerTickSent...),
		Protocol:        cfg.Protocol,
		Aggregate:       cfg.Aggregate,
	}
	if cfg.Protocol == Wildfire {
		// §6.6.2: WILDFIRE declares at t0 + 2D̂δ regardless of traffic.
		res.TimeCost = int(q.Deadline())
	}
	if !cfg.SkipOracle {
		b := oracle.Compute(n.g, n.values, q.Hq, sched, q.Deadline(), kind)
		res.Lower, res.Upper = b.LowerValue, b.UpperValue
		res.HC, res.HU = len(b.HC), len(b.HU)
		// Each protocol in its own currency: sketches against the bounds
		// of the hosts' own coins, exact partials against the exact ones,
		// and §4.3's sampled count within (1±ε) of them.
		switch cfg.Protocol {
		case Wildfire, DAG:
			res.Valid = b.Matched(n.values, q.Params, seed).Valid(v)
		case RandomizedReport:
			res.Valid = v >= (1-eps)*b.LowerValue && v <= (1+eps)*b.UpperValue
		default:
			res.Valid = b.Valid(v)
		}
	}
	return res, nil
}

// eventOf converts a public Failure spec to a membership-layer event.
func eventOf(f Failure) churn.Event {
	kind := churn.Leave
	if f.Join {
		kind = churn.Join
	}
	return churn.Event{H: graph.HostID(f.H), T: sim.Time(f.T), Kind: kind}
}
