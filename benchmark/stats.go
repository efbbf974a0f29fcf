package main

import (
	"math"
	"sort"
)

// quantile reads the q-th quantile of an unsorted sample by nearest rank
// (the same rule admission.Snapshot uses); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// segQuantile cuts the sample, in the order it was taken, into k consecutive
// stretches and returns the median of their q-th quantiles; the plain
// quantile when k is 1 or the sample too small to cut.
func segQuantile(xs []float64, q float64, k int) float64 {
	if k <= 1 || len(xs) < 20*k {
		return quantile(xs, q)
	}
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return median(qs)
}

// tailQ picks the tail percentile a per-layer sample of n supports: the
// highest of p99/p95/p90 that leaves at least two hundred samples beyond it;
// below a thousand samples, p75. Ten samples beyond would be enough to define
// a percentile, but not to hold it still: the rank sits where the density is
// lowest, and on a shared box one slow stretch moves the tenth-slowest of a
// hundred operations by 30 %. (The end-to-end tails are fixed per workload,
// in the workload table.)
func tailQ(n int) float64 {
	switch {
	case n >= 20000:
		return 0.99
	case n >= 4000:
		return 0.95
	case n >= 1000:
		return 0.90
	}
	return 0.75
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// quartiles returns (q1, median, q3) by the exclusive method Python's
// statistics.quantiles(n=4) uses, so a spread computed here matches the
// one the driver computes over the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
