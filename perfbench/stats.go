package main

import (
	"math"
	"sort"
	"time"
)

// tailLevel is the highest percentile the benchmark reports as a tail.
const tailLevel = 0.99

// minBeyond is how many samples must lie above a reported tail
// percentile: with fewer, the "percentile" is one unlucky sample.
const minBeyond = 10

// summary reduces a sample set to the two numbers every timing reports:
// the median and the tail, with the sample count and the level the tail
// was taken at.
type summary struct {
	N     int     // samples
	P50   float64 // median (mean of the two middle samples when N is even)
	Tail  float64 // the sample at TailQ (nearest rank)
	TailQ float64 // level of Tail: 0.99 when N allows, lower otherwise
}

// summarize computes exact order statistics from raw samples; it never
// interpolates between histogram buckets. The tail is the nearest-rank
// p99 when at least minBeyond samples lie above it; otherwise the
// highest percentile that leaves minBeyond above, and with N <=
// minBeyond it is the maximum.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[(n-1)/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	k := tailRank(n)
	return summary{N: n, P50: med, Tail: s[k], TailQ: float64(k+1) / float64(n)}
}

// tailRank is the 0-based rank of the tail sample among n sorted ones.
func tailRank(n int) int {
	k := int(math.Ceil(tailLevel*float64(n))) - 1
	if most := n - 1 - minBeyond; k > most {
		k = most
	}
	if k < 0 {
		k = n - 1
	}
	return k
}

// median is summarize(xs).P50.
func median(xs []float64) float64 { return summarize(xs).P50 }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// searchMaxRate finds the highest offered rate that passes, to within
// a factor of 1+tol. pass runs one probe at a rate and reports whether
// it met the latency limit without a growing backlog. The search first
// brackets the knee from start (halving on failure, doubling on
// success, at most maxProbes probes in all), then bisects the bracket
// geometrically. A rate that never passes yields the lowest one tried
// below, so the result is always a rate some probe passed, or the floor.
func searchMaxRate(start, floor, tol float64, maxProbes int, pass func(rate float64) bool) (best float64, probes int) {
	try := func(r float64) bool {
		probes++
		return pass(r)
	}
	lo, hi := 0.0, 0.0
	if try(start) {
		lo = start
		for hi == 0 && probes < maxProbes {
			if r := lo * 2; try(r) {
				lo = r
			} else {
				hi = r
			}
		}
	} else {
		hi = start
		for lo == 0 && probes < maxProbes {
			r := hi / 2
			if r < floor {
				return floor, probes
			}
			if try(r) {
				lo = r
			} else {
				hi = r
			}
		}
	}
	if lo == 0 {
		return floor, probes
	}
	if hi == 0 {
		return lo, probes
	}
	for hi/lo > 1+tol && probes < maxProbes {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}
