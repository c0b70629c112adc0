// Package ring implements the protocol-specific network-size estimator of
// §5.4: some P2P protocols (Chord, Viceroy, Pastry [23,34,36]) place hosts
// at random identifiers on a unit-length ring, each host managing the
// segment between its own identifier and its immediate clockwise
// predecessor. If X_s is the total segment length managed by a uniform
// sample of s hosts, then s/X_s is an unbiased estimator of |H|.
//
// The package provides the ring overlay itself (join/leave with correct
// segment reassignment, successor lookup) and the estimator, together
// with the §5.4 validity assumptions encoded as options for tests to
// violate deliberately.
package ring

import (
	"fmt"
	"math/rand"
	"sort"
)

// Ring is a unit-circumference identifier ring. Host identifiers are
// float64 points in [0, 1); each host manages the segment from its
// predecessor (exclusive) to itself (inclusive), wrapping at 1.
type Ring struct {
	rng *rand.Rand
	ids []float64 // sorted
}

// New creates an empty ring whose joins draw identifiers from rng.
func New(rng *rand.Rand) *Ring { return &Ring{rng: rng} }

// NewWithHosts creates a ring and joins n hosts.
func NewWithHosts(n int, rng *rand.Rand) *Ring {
	r := New(rng)
	for i := 0; i < n; i++ {
		r.Join()
	}
	return r
}

// Size returns the number of hosts on the ring.
func (r *Ring) Size() int { return len(r.ids) }

// Join places a new host at a uniformly random identifier and returns it.
func (r *Ring) Join() float64 {
	id := r.rng.Float64()
	i := sort.SearchFloat64s(r.ids, id)
	r.ids = append(r.ids, 0)
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = id
	return id
}

// Leave removes the host with the given identifier; it reports whether
// the host existed. Its segment is absorbed by its successor, exactly as
// in Chord-style protocols.
func (r *Ring) Leave(id float64) bool {
	i := sort.SearchFloat64s(r.ids, id)
	if i >= len(r.ids) || r.ids[i] != id {
		return false
	}
	r.ids = append(r.ids[:i], r.ids[i+1:]...)
	return true
}

// Successor returns the host managing point p: the first identifier
// clockwise at or after p (wrapping to the smallest identifier).
func (r *Ring) Successor(p float64) (float64, error) {
	if len(r.ids) == 0 {
		return 0, fmt.Errorf("ring: empty")
	}
	i := sort.SearchFloat64s(r.ids, p)
	if i == len(r.ids) {
		i = 0
	}
	return r.ids[i], nil
}

// SegmentLength returns the length of the segment managed by the host
// with identifier id (distance back to its predecessor).
func (r *Ring) SegmentLength(id float64) (float64, error) {
	i := sort.SearchFloat64s(r.ids, id)
	if i >= len(r.ids) || r.ids[i] != id {
		return 0, fmt.Errorf("ring: host %v not present", id)
	}
	if len(r.ids) == 1 {
		return 1, nil
	}
	prev := i - 1
	if prev < 0 {
		prev = len(r.ids) - 1
	}
	seg := r.ids[i] - r.ids[prev]
	if seg <= 0 {
		seg += 1
	}
	return seg, nil
}

// SampleHosts draws s distinct hosts uniformly at random (all hosts if s
// exceeds the ring size).
func (r *Ring) SampleHosts(s int) []float64 {
	n := len(r.ids)
	if s > n {
		s = n
	}
	perm := r.rng.Perm(n)[:s]
	out := make([]float64, s)
	for i, idx := range perm {
		out[i] = r.ids[idx]
	}
	return out
}

// EstimateSize implements the §5.4 estimator: draw s hosts, sum their
// segment lengths X_s and return s/X_s. The estimate satisfies
// Approximate Single-Site Validity under the §5.4 assumptions
// (instantaneous sampling, identical leave probability across hosts).
func (r *Ring) EstimateSize(s int) (float64, error) {
	if len(r.ids) == 0 {
		return 0, fmt.Errorf("ring: empty")
	}
	hosts := r.SampleHosts(s)
	var xs float64
	for _, h := range hosts {
		seg, err := r.SegmentLength(h)
		if err != nil {
			return 0, err
		}
		xs += seg
	}
	if xs == 0 {
		return 0, fmt.Errorf("ring: zero total segment length")
	}
	return float64(len(hosts)) / xs, nil
}
