package validity

import (
	"fmt"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/stream"
)

// ContinuousConfig configures a long-running windowed query (§4.2).
type ContinuousConfig struct {
	// Aggregate is the query.
	Aggregate Aggregate
	// Hq is the monitoring host (default 0).
	Hq int
	// DHat overestimates the stable diameter; 0 means diameter + 2.
	DHat int
	// WindowLen is W in ticks; 0 means exactly 2·D̂ (the minimum §4.2
	// allows).
	WindowLen int64
	// Windows is the number of windows to run (required).
	Windows int
	// Failures schedules that many random departures at a uniform rate
	// across the whole run.
	Failures int
	// Schedule supplies explicit failures (absolute time) and overrides
	// Failures.
	Schedule []Failure
	// SketchVectors is the FM repetition count (default 8).
	SketchVectors int
	// Seed drives randomness; 0 derives from the network seed.
	Seed int64
}

// WindowResult is one window of a continuous query; see
// ContinuousConfig.
type WindowResult struct {
	// Index is the 0-based window number; Start/End its absolute
	// interval.
	Index      int
	Start, End int64
	// Value is the window's declared result.
	Value float64
	// Lower, Upper are the window's own validity bounds.
	Lower, Upper float64
	// HC, HU are the bound set sizes; AliveAtStart is the population.
	HC, HU, AliveAtStart int
	// Valid reports Continuous Single-Site Validity for this window.
	Valid bool
	// Messages is the window's communication cost.
	Messages int64
}

// ContinuousQuery runs a windowed continuous aggregate query over the
// network under churn, returning one result per window, each with its own
// Single-Site Validity bounds (§4.2). Like Query it runs on the
// deterministic simulator; the windows are a stream.Plan, the same
// definition validityd -continuous serves on the live engine.
func (n *Network) ContinuousQuery(cfg ContinuousConfig) ([]WindowResult, error) {
	kind, err := cfg.Aggregate.kind()
	if err != nil {
		return nil, err
	}
	if cfg.Hq < 0 || cfg.Hq >= n.g.Len() {
		return nil, fmt.Errorf("validity: monitoring host %d outside network", cfg.Hq)
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
	plan := &stream.Plan{
		Query: 1,
		Spec: protocol.Query{
			Kind:   kind,
			Hq:     graph.HostID(cfg.Hq),
			DHat:   dHat,
			Params: agg.Params{Vectors: vectors, Bits: agg.DefaultParams().Bits},
		},
		WindowLen: sim.Time(cfg.WindowLen),
		Windows:   cfg.Windows,
		Seed:      seed,
	}
	switch {
	case cfg.Schedule != nil:
		for _, f := range cfg.Schedule {
			if f.H < 0 || f.H >= n.g.Len() {
				return nil, fmt.Errorf("validity: failure host %d outside network", f.H)
			}
			plan.Static = append(plan.Static, eventOf(f))
		}
	case cfg.Failures > 0:
		if cfg.Failures >= n.g.Len() {
			return nil, fmt.Errorf("validity: cannot fail %d of %d hosts", cfg.Failures, n.g.Len())
		}
		// The same membership Source one-shot Query draws from, spread
		// over the stream's whole horizon.
		plan.Source = churn.Uniform{N: n.g.Len(), Remove: cfg.Failures}
	}

	medium := sim.MediumPointToPoint
	if n.wireless {
		medium = sim.MediumWireless
	}
	rs, err := stream.RunSim(plan, n.g, n.values, medium, oracle.FMSlack(kind, vectors))
	if err != nil {
		return nil, err
	}
	sched, err := plan.Schedule()
	if err != nil {
		return nil, err
	}
	ix := sched.Index()
	out := make([]WindowResult, len(rs))
	for i, r := range rs {
		alive := 0
		for h := 0; h < n.g.Len(); h++ {
			if ix.AliveAt(graph.HostID(h), sim.Time(r.Start)) {
				alive++
			}
		}
		out[i] = WindowResult{
			Index: r.Window, Start: r.Start, End: r.End,
			Value: r.Value, Lower: r.Lower, Upper: r.Upper,
			HC: r.HC, HU: r.HU, AliveAtStart: alive,
			Valid: r.Valid, Messages: r.Stats.MessagesSent,
		}
	}
	return out, nil
}

// ProbeDiameter runs the §6.6.2 WILDFIRE self-probe: a max query over
// broadcast distances that discovers the eccentricity of hq, returning a
// recommended D̂ for subsequent queries.
func (n *Network) ProbeDiameter(hq int, seed int64) (eccentricity int, recommendedDHat int, err error) {
	if hq < 0 || hq >= n.g.Len() {
		return 0, 0, fmt.Errorf("validity: probing host %d outside network", hq)
	}
	if seed == 0 {
		seed = n.seed + 1
	}
	probe := protocol.NewDiameterProbe(graph.HostID(hq))
	nw := sim.NewNetwork(sim.Config{Graph: n.g, Seed: seed, Values: n.values})
	v, _, err := protocol.Run(probe, nw)
	if err != nil {
		return 0, 0, err
	}
	rec, _ := probe.RecommendedDHat()
	return int(v), rec, nil
}
