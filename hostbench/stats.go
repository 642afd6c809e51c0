package main

import (
	"math"
	"sort"
)

// summary describes one sample of timings or rates: its size, median,
// 90th percentile and quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q2, q3 := quartiles(s)
	return summary{N: len(s), Median: q2, P90: percentile(s, 0.90), Q1: q1, Q3: q3}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return summarize(xs).Median
}

// quartiles returns the three cut points Python's
// statistics.quantiles(data, n=4) gives with its default "exclusive"
// method, for data already sorted. A single value is its own
// quartiles.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-quantile of sorted data: the
// smallest value with at least p of the sample at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
