package stream

import (
	"fmt"

	"validity/internal/graph"
	"validity/internal/node"
	"validity/internal/protocol"
	"validity/internal/sim"
)

// RunSim executes the plan on the deterministic event loop instead of a
// live runtime: window k is a fresh sim.Network over g with the window's
// own membership timeline applied (WindowSchedule), one WILDFIRE run of
// the plan's Spec, and the window's own oracle bounds — the same window
// family, seeds (node.QuerySeed of the window id), and Bounds a Stream
// serves, on virtual ticks. Results carry no Latency, and their Stats hold
// the event loop's §6.3 counters (no wire bytes). Valid is judged with
// the caller's multiplicative slack, exact for min/max.
func RunSim(p *Plan, g *graph.Graph, values []int64, medium sim.Medium, slack float64) ([]Result, error) {
	if err := p.init(); err != nil {
		return nil, err
	}
	if g == nil || len(values) != g.Len() {
		return nil, fmt.Errorf("stream: need one value per host of a non-nil graph")
	}
	if !p.Spec.Kind.DuplicateSensitive() {
		slack = 1
	}
	out := make([]Result, 0, p.Windows)
	for k := 0; k < p.Windows; k++ {
		sched, err := p.WindowSchedule(k)
		if err != nil {
			return nil, err
		}
		nw := sim.NewNetwork(sim.Config{
			Graph:  g,
			Medium: medium,
			Seed:   node.QuerySeed(p.Seed, WindowID(p.Query, k)),
			Values: values,
		})
		sched.Apply(nw)
		v, st, err := protocol.Run(protocol.NewWildfire(p.Spec), nw)
		if err != nil {
			return nil, fmt.Errorf("stream: window %d: %w", k, err)
		}
		b, err := p.Bounds(g, values, k)
		if err != nil {
			return nil, err
		}
		out = append(out, Result{
			Window: k,
			Start:  int64(p.WindowStart(k)),
			End:    int64(p.WindowEnd(k)),
			Value:  v,
			Lower:  b.LowerValue,
			Upper:  b.UpperValue,
			HC:     len(b.HC),
			HU:     len(b.HU),
			Slack:  slack,
			Valid:  b.ValidFactor(v, slack),
			Stats:  *st,
		})
	}
	return out, nil
}
