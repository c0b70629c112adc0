package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// percentile reads the q-quantile (0..1) off raw samples by linear
// interpolation between the two closest ranks. The slice is sorted in
// place. End-to-end latencies are read off raw samples, never buckets, so
// a floor-bound workload reads 53.4 ms and not the bucket edge below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// midmean is the mean of the middle half of the samples, the quarter on
// either side cut off. It stands where a median would. The engine's reads
// return on a poll back-off, so latencies come in steps (floor + 2.5, 7.5,
// 17.5, 32.5 ms …), and a median over two steps of about equal weight
// reads one or the other, 10 ms apart, as the mix drifts through one half;
// the midmean moves with the mix instead. The slice is sorted in place.
func midmean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	// Sample i covers [i, i+1) of the rank axis; the middle half is
	// [n/4, 3n/4), and each sample weighs in with its overlap.
	lo, hi := float64(n)/4, 3*float64(n)/4
	var sum float64
	for i, x := range xs {
		a, b := math.Max(float64(i), lo), math.Min(float64(i+1), hi)
		if b > a {
			sum += x * (b - a)
		}
	}
	return sum / (hi - lo)
}

// tailQuantile is the percentile the tail latency is read at: the 90th,
// or with fewer than a hundred samples the highest one that still has ten
// samples beyond it, and never below the median.
func tailQuantile(samples int) float64 {
	if samples <= 20 {
		return 0.5
	}
	return math.Min(0.9, 1-10/float64(samples))
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// quartileSpread is (Q3−Q1)/median with Python's
// statistics.quantiles(xs, n=4) cut points (the exclusive method), the
// spread the benchmark contract judges steadiness with. Fewer than four
// samples fall back to (max−min)/median.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	if n < 4 {
		return math.Abs((s[n-1] - s[0]) / med)
	}
	cut := func(i int) float64 { // i-th of 4 cut points, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // taken after the clamp, as CPython does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs((cut(3) - cut(1)) / med)
}

// Span durations are aggregated in log-spaced buckets: 2^subBits buckets
// per power of two, so a bucket is at most 1/16 wide relative to its
// lower edge and a percentile read off the bucket midpoint is within
// about 3% of the sample it stands for. Values below 2^subBits ns get one
// bucket each.
const (
	subBits    = 4
	numBuckets = (64 - subBits + 1) << subBits
)

// bucketOf maps a non-negative duration in ns to its bucket index.
func bucketOf(ns int64) int {
	if ns < 1<<subBits {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // floor(log2 ns) ≥ subBits
	m := int(ns>>(e-subBits)) & (1<<subBits - 1)
	return (e-subBits+1)<<subBits | m
}

// bucketLow is the smallest value that maps to bucket i.
func bucketLow(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	e := i>>subBits + subBits - 1
	m := int64(i & (1<<subBits - 1))
	return 1<<e | m<<(e-subBits)
}

// spanAgg is the in-memory aggregate of one span kind: count, total and
// the log-spaced histogram. Every update is an atomic add, so the traced
// hot paths (one per frame, one per handler callback) take no lock.
type spanAgg struct {
	count   atomic.Int64
	total   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

func (a *spanAgg) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	a.count.Add(1)
	a.total.Add(ns)
	a.buckets[bucketOf(ns)].Add(1)
}

// mean is total/count in ns (0 when empty).
func (a *spanAgg) mean() float64 {
	n := a.count.Load()
	if n == 0 {
		return 0
	}
	return float64(a.total.Load()) / float64(n)
}

// quantile reads the q-quantile in ns off the buckets, answering with the
// midpoint of the bucket the rank falls in.
func (a *spanAgg) quantile(q float64) float64 {
	n := a.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range a.buckets {
		seen += a.buckets[i].Load()
		if seen >= rank {
			lo := bucketLow(i)
			hi := lo + 1
			if i+1 < numBuckets {
				hi = bucketLow(i + 1)
			}
			return float64(lo+hi-1) / 2
		}
	}
	return float64(bucketLow(numBuckets - 1))
}

// stripedAgg spreads one span kind over a few spanAggs picked by host id,
// so the shard workers of a runtime (which own hosts round-robin) and the
// delivery goroutine do not all hammer one cache line per observation.
type stripedAgg [4]spanAgg

func (s *stripedAgg) observe(host int, ns int64) { s[host&3].observe(ns) }

// merged folds the stripes into one aggregate for reading.
func (s *stripedAgg) merged() *spanAgg {
	out := &spanAgg{}
	for i := range s {
		out.count.Add(s[i].count.Load())
		out.total.Add(s[i].total.Load())
		for b := range s[i].buckets {
			if n := s[i].buckets[b].Load(); n != 0 {
				out.buckets[b].Add(n)
			}
		}
	}
	return out
}
