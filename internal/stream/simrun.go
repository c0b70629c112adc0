package stream

import (
	"fmt"

	"validity/internal/graph"
	"validity/internal/protocol"
	"validity/internal/sim"
)

// RunSim executes the plan on the deterministic event loop instead of a
// live runtime: window k is a fresh sim.Network over g with the window's
// own membership timeline applied (WindowSchedule), one WILDFIRE run of
// the plan's Spec, and the window's own oracle bounds — the same window
// family, seeds (node.QuerySeed of the window id), and Bounds a Stream
// serves, on virtual ticks. Results carry no Latency, and their Stats hold
// the event loop's §6.3 counters (no wire bytes). Valid is the Stream's
// verdict: the window's bounds matched to its hosts' own coins.
func RunSim(p *Plan, g *graph.Graph, values []int64, medium sim.Medium) ([]Result, error) {
	if err := p.init(); err != nil {
		return nil, err
	}
	if g == nil || len(values) != g.Len() {
		return nil, fmt.Errorf("stream: need one value per host of a non-nil graph")
	}
	out := make([]Result, 0, p.Windows)
	for k := 0; k < p.Windows; k++ {
		sched, err := p.WindowSchedule(k)
		if err != nil {
			return nil, err
		}
		nw := sim.NewNetwork(sim.Config{Graph: g, Medium: medium, Seed: p.seed(k), Values: values})
		sched.Apply(nw)
		v, st, err := protocol.Run(protocol.NewWildfire(p.Spec), nw)
		if err != nil {
			return nil, fmt.Errorf("stream: window %d: %w", k, err)
		}
		r, err := p.judge(g, values, k, v)
		if err != nil {
			return nil, err
		}
		r.Stats = *st
		out = append(out, r)
	}
	return out, nil
}
