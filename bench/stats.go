package main

import (
	"math"
	"sort"
)

// metric is one reported number. N is the sample count behind a timing or a
// percentile (0 for plain counts and ratios).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, value float64, unit string) { m.putN(name, value, unit, 0) }

// overAnyLimit stands in for +Inf, which JSON cannot carry: a percentile that
// lands on an operation that never completed.
const overAnyLimit = 1e9

func (m metricSet) putN(name string, value float64, unit string, n int) {
	switch {
	case math.IsNaN(value):
		value = 0
	case math.IsInf(value, 0):
		value = math.Copysign(overAnyLimit, value)
	}
	m[name] = metric{Value: value, Unit: unit, N: n}
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, the steadiness measure the benchmark's bounds are
// checked against. Quartiles follow Python's statistics.quantiles(v, n=4)
// (the exclusive method), so the number matches what the driver computes.
func quartileSpread(v []float64) (q1, med, q3, spread float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0], 0
		}
		return 0, 0, 0, 0
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	q1, med, q3 = q(1), q(2), q(3)
	return q1, med, q3, ratio(q3-q1, math.Abs(med))
}
