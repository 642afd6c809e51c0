package main

import (
	"math"
	"testing"
)

func TestSummaryMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
		p90        float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, 9},
		// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, 4},
		// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3, 3},
		{[]float64{7}, 7, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.N != len(c.xs) {
			t.Errorf("%v: N = %d, want %d", c.xs, s.N, len(c.xs))
		}
		if s.Q1 != c.q1 || s.Median != c.q2 || s.Q3 != c.q3 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.q2, c.q3)
		}
		if s.P90 != c.p90 {
			t.Errorf("%v: p90 = %v, want %v", c.xs, s.P90, c.p90)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || summarize(nil).N != 0 {
		t.Error("an empty sample has no median")
	}
	if got := summarize([]float64{9, 10, 11, 10}).spread(); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("spread = %v, want 0.15", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", 100*c.p, got, c.want)
		}
	}
}
