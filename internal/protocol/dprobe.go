package protocol

import (
	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/sim"
)

// DiameterProbe implements the §6.6.2 heuristic for choosing a good D̂:
// "initially use WILDFIRE itself with a large D̂ to find the maximum D
// among hosts in G, and then use the result to construct D̂ for
// subsequent queries."
//
// Each host's attribute value for this query is its broadcast distance
// from h_q — known the moment it activates (the ad-hoc query model of
// §3.1, realized through Wildfire.ValueFn) — and the aggregate is max,
// which is duplicate-insensitive, so the probe inherits WILDFIRE's
// Single-Site Validity: the result is the eccentricity of h_q over some
// host set between H_C and H_U.
type DiameterProbe struct {
	// Hq is the probing host.
	Hq graph.HostID
	// Cap is the large initial overestimate (the probe's own D̂); it
	// bounds how far the probe can see. Defaults to 64, ample for
	// small-world networks (§3.2: Gnutella D = 12, social networks 6).
	Cap int

	wf *Wildfire
}

// NewDiameterProbe returns a probe from hq with the default cap.
func NewDiameterProbe(hq graph.HostID) *DiameterProbe {
	return &DiameterProbe{Hq: hq, Cap: 64}
}

// Name implements Protocol.
func (d *DiameterProbe) Name() string { return "diameterprobe" }

// Deadline implements Protocol.
func (d *DiameterProbe) Deadline() sim.Time { return sim.Time(2 * d.Cap) }

// Init implements Protocol.
func (d *DiameterProbe) Init(g *graph.Graph) error {
	q := Query{Kind: agg.Max, Hq: d.Hq, DHat: d.Cap, Params: agg.DefaultParams()}
	d.wf = NewWildfire(q)
	d.wf.ValueFn = func(h graph.HostID, dist int) int64 { return int64(dist) }
	return d.wf.Init(g)
}

// NewHost implements Protocol.
func (d *DiameterProbe) NewHost(h graph.HostID) sim.Handler { return d.wf.NewHost(h) }

// Install implements Protocol.
func (d *DiameterProbe) Install(nw *sim.Network) error { return install(d, nw) }

// Result implements Protocol: the observed eccentricity of h_q.
func (d *DiameterProbe) Result() (float64, bool) {
	if d.wf == nil {
		return 0, false
	}
	return d.wf.Result()
}

// RecommendedDHat converts the probe result into a D̂ for subsequent
// queries: eccentricity plus slack for hosts whose stable paths are a
// little longer than their broadcast paths.
func (d *DiameterProbe) RecommendedDHat() (int, bool) {
	v, ok := d.Result()
	if !ok {
		return 0, false
	}
	return int(v) + 2, true
}
