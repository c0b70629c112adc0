// Package capture implements the paper's continuous approximate count
// scheme (§5.4): network-size estimation by Capture–Recapture under the
// Jolly–Seber model for open populations.
//
// The scheme views the dynamic network as an evolving ecology. At each
// interval t the querying host holds a set M_t of marked hosts (hosts
// known alive), draws a fresh uniform sample N_t through a protocol
// "black-box" sampling operation, counts the recaptures
// m_t = |M_t ∩ N_t|, and estimates
//
//	Ĥ_t = |M_t| · |N_t| / m_t.
//
// Marked-set maintenance follows §5.4 exactly: M'_t = M_{t−1} ∪ N_{t−1}
// is probed, dead hosts are dropped, and the survivors become M_t
// (optionally truncated). Estimation begins at the second interval
// because M_1 = ∅.
//
// The package is deliberately protocol-agnostic: callers supply a Sampler
// (the black-box of assumption 1 — e.g. random walks on an expander
// overlay) and an alive-probe. A Population helper simulating memoryless
// churn (assumptions 2–3) is provided for experiments and tests.
package capture

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"

	"validity/internal/graph"
)

// Sampler returns s hosts drawn (approximately) uniformly at random from
// the current population. The black-box operation of §5.4: on expander-
// like P2P overlays it is realized with s random walks of length
// O(log |H|).
type Sampler interface {
	Sample(s int) []graph.HostID
}

// Prober reports whether a host is currently alive; the querying host uses
// it to refresh its marked set (a direct probe message in a real network).
type Prober interface {
	Alive(h graph.HostID) bool
}

// Estimator runs the Jolly–Seber capture–recapture loop.
type Estimator struct {
	sampler Sampler
	prober  Prober
	// sampleSize is |N_t| per interval.
	sampleSize int
	// maxMarked caps |M_t| (§5.4: "if the set M_t grows more than
	// required, h_q can arbitrarily remove hosts"); 0 means no cap.
	maxMarked int

	marked     map[graph.HostID]bool // M_t
	lastSample []graph.HostID        // N_{t-1}
	intervals  int
}

// NewEstimator returns an estimator drawing sampleSize hosts per interval.
func NewEstimator(sampler Sampler, prober Prober, sampleSize, maxMarked int) (*Estimator, error) {
	if sampler == nil || prober == nil {
		return nil, fmt.Errorf("capture: sampler and prober are required")
	}
	if sampleSize < 1 {
		return nil, fmt.Errorf("capture: sample size must be ≥ 1, got %d", sampleSize)
	}
	return &Estimator{
		sampler:    sampler,
		prober:     prober,
		sampleSize: sampleSize,
		maxMarked:  maxMarked,
		marked:     make(map[graph.HostID]bool),
	}, nil
}

// Result is one interval's outcome.
type Result struct {
	// Interval is the 1-based interval index.
	Interval int
	// Marked is |M_t| after probing.
	Marked int
	// Sampled is |N_t|.
	Sampled int
	// Recaptured is m_t = |M_t ∩ N_t|.
	Recaptured int
	// Estimate is Ĥ_t = |M_t|·|N_t|/m_t, or NaN when m_t = 0 (no overlap:
	// the population dwarfs the marked set, or everything churned away).
	Estimate float64
}

// Step executes one interval: refresh the marked set from the previous
// interval's knowledge, draw a fresh sample, and estimate. The first call
// only marks (M_1 = ∅ ⇒ no estimate), matching §5.4.
func (e *Estimator) Step() Result {
	e.intervals++
	// M'_t = M_{t-1} ∪ N_{t-1}; probe and keep the alive ones.
	for _, h := range e.lastSample {
		e.marked[h] = true
	}
	for h := range e.marked {
		if !e.prober.Alive(h) {
			delete(e.marked, h)
		}
	}
	// Optional truncation ("h_q can arbitrarily remove hosts", §5.4).
	// Remove the highest IDs for determinism across runs.
	if e.maxMarked > 0 && len(e.marked) > e.maxMarked {
		ids := make([]graph.HostID, 0, len(e.marked))
		for h := range e.marked {
			ids = append(ids, h)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, h := range ids[e.maxMarked:] {
			delete(e.marked, h)
		}
	}
	// Fresh sample N_t.
	sample := e.sampler.Sample(e.sampleSize)
	recaptured := 0
	for _, h := range sample {
		if e.marked[h] {
			recaptured++
		}
	}
	res := Result{
		Interval:   e.intervals,
		Marked:     len(e.marked),
		Sampled:    len(sample),
		Recaptured: recaptured,
		Estimate:   math.NaN(),
	}
	if recaptured > 0 && e.intervals > 1 {
		res.Estimate = float64(res.Marked) * float64(res.Sampled) / float64(recaptured)
	}
	e.lastSample = sample
	return res
}

// RequiredSampleSize returns the §5.4 bound |N_t| ≥ (4/(ε²·ρ))·ln(2/δ)
// where ρ is the marked fraction |M_t|/|H_t| (estimated from the previous
// interval if |H_t| is unknown).
func RequiredSampleSize(eps, delta, rho float64) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("capture: ε must be in (0,1), got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("capture: δ must be in (0,1), got %v", delta)
	}
	if rho <= 0 || rho > 1 {
		return 0, fmt.Errorf("capture: marked fraction ρ must be in (0,1], got %v", rho)
	}
	return int(math.Ceil(4 / (eps * eps * rho) * math.Log(2/delta))), nil
}

// Population simulates an open population with memoryless churn: at each
// Advance, every host independently leaves with probability leaveProb
// (assumption 3) and newHosts fresh hosts join, keeping the population
// roughly stationary when newHosts ≈ leaveProb·size. It implements both
// Sampler (uniform sampling, assumptions 1–2) and Prober.
type Population struct {
	rng    *rand.Rand
	alive  map[graph.HostID]bool
	nextID graph.HostID
}

// NewPopulation creates a population of n hosts.
func NewPopulation(n int, rng *rand.Rand) *Population {
	p := &Population{rng: rng, alive: make(map[graph.HostID]bool, n)}
	for i := 0; i < n; i++ {
		p.alive[p.nextID] = true
		p.nextID++
	}
	return p
}

// Size returns the current |H_t|.
func (p *Population) Size() int { return len(p.alive) }

// sortedIDs lists the alive hosts in id order: map iteration order varies
// between runs, and drawing from the RNG in that order would break seeded
// reproducibility.
func (p *Population) sortedIDs() []graph.HostID {
	return slices.Sorted(maps.Keys(p.alive))
}

// Advance applies one churn interval.
func (p *Population) Advance(leaveProb float64, joins int) {
	for _, h := range p.sortedIDs() {
		if p.rng.Float64() < leaveProb {
			delete(p.alive, h)
		}
	}
	for i := 0; i < joins; i++ {
		p.alive[p.nextID] = true
		p.nextID++
	}
}

// Alive implements Prober.
func (p *Population) Alive(h graph.HostID) bool { return p.alive[h] }

// Sample implements Sampler: s uniform draws without replacement (or the
// whole population if s exceeds it).
func (p *Population) Sample(s int) []graph.HostID {
	ids := p.sortedIDs()
	p.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if s > len(ids) {
		s = len(ids)
	}
	return ids[:s]
}
