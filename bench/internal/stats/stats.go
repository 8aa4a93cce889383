// Package stats holds the summary statistics the benchmark reports and
// compares: medians, quartiles, the tail percentile a sample supports and a
// bootstrap interval.
package stats

import (
	"math"
	"math/rand/v2"
	"slices"
)

// Median returns the median of xs, 0 when xs is empty.
func Median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

// Quartiles returns the first quartile, the median and the third quartile
// of xs by the rule of Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so spreads computed here match the ones other tools
// compute from the same values. With fewer than two values all three are
// the single value, or 0.
func Quartiles(xs []float64) (q1, median, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile range as a share of the median, the
// run-to-run noise measure the benchmark's bounds are set against.
func Spread(xs []float64) float64 {
	q1, m, q3 := Quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// TailPercentile returns the highest whole percentile of an n-sample set
// that still has at least ten samples beyond it — p95 at n = 200, p90 at
// n = 100 — and false when n is too small to have one.
func TailPercentile(n int) (int, bool) {
	if n <= 10 {
		return 0, false
	}
	return 100 * (n - 10) / n, true
}

// Percentile returns the nearest-rank p-th percentile of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	k := int(math.Ceil(p * float64(len(d)) / 100))
	return d[min(max(k, 1), len(d))-1]
}

// Tail returns the TailPercentile value of xs and its percentile; a set too
// small to have one reports its maximum as percentile 100.
func Tail(xs []float64) (float64, int) {
	p, ok := TailPercentile(len(xs))
	if !ok {
		p = 100
	}
	return Percentile(xs, float64(p)), p
}

// BootstrapRatioCI returns a 95% bootstrap interval for
// median(change)/median(parent) − 1, resampling both sides with
// replacement from a fixed seed so the interval is reproducible.
func BootstrapRatioCI(parent, change []float64, rounds int) (lo, hi float64) {
	if len(parent) == 0 || len(change) == 0 {
		return 0, 0
	}
	r := rand.New(rand.NewPCG(1, 2))
	resample := func(xs, buf []float64) float64 {
		for i := range buf {
			buf[i] = xs[r.IntN(len(xs))]
		}
		return Median(buf)
	}
	pb, cb := make([]float64, len(parent)), make([]float64, len(change))
	ratios := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		if p := resample(parent, pb); p != 0 {
			ratios = append(ratios, resample(change, cb)/p-1)
		}
	}
	return Percentile(ratios, 2.5), Percentile(ratios, 97.5)
}
