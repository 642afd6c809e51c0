package main

import "testing"

func repeat(v float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestJudge(t *testing.T) {
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	cases := []struct {
		name       string
		base, head []float64
		better     string
		bound      float64
		want       string
		wins, ties int
	}{
		{"identical runs tie every pair", tight, tight, "lower", 0.1, outcomeWithin, 0, 10},
		{"clear gain", tight, scale(tight, 0.8), "lower", 0.1, outcomeImproved, 10, 0},
		{"clear loss", tight, scale(tight, 1.2), "lower", 0.1, outcomeRegressed, 0, 0},
		{"loss within bound", tight, scale(tight, 1.05), "lower", 0.1, outcomeWithin, 0, 0},
		{"higher is better", tight, scale(tight, 1.2), "higher", 0.1, outcomeImproved, 10, 0},
		{"higher is better, loss", tight, scale(tight, 0.8), "higher", 0.1, outcomeRegressed, 0, 0},
		{
			// A gain no larger than the parent's own spread is no gain,
			// and a spread wider than the bound leaves it unresolved.
			"spread wider than bound",
			[]float64{1, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1, 1},
			[]float64{0.95, 1.35, 0.65, 1.25, 0.75, 1.15, 0.85, 1.05, 0.95, 0.95},
			"lower", 0.1, outcomeUnresolved, 10, 0,
		},
		{
			// Eight pairs won of ten is short of nine tenths.
			"too few pairs won",
			tight,
			[]float64{0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.05, 1.05},
			"lower", 0.1, outcomeWithin, 8, 0,
		},
		{
			// Ties count for neither side: nine ties and one win is not
			// nine tenths won.
			"ties count for neither side",
			repeat(1, 10),
			append(repeat(1, 9), 0.5),
			"lower", 0.1, outcomeWithin, 1, 9,
		},
		{
			// Wide spread, but every change run beats every parent run.
			"wide spread, every run better",
			[]float64{10, 20, 10, 20, 10, 20, 10, 20, 10, 20},
			repeat(9.9, 10),
			"lower", 0.1, outcomeWithin, 10, 0,
		},
	}
	for _, c := range cases {
		v := judge(c.base, c.head, c.better, c.bound)
		ties := v.Pairs - v.Wins - v.Losses
		if v.Outcome != c.want || v.Wins != c.wins || ties != c.ties {
			t.Errorf("%s: %s with %d wins, %d ties; want %s with %d wins, %d ties (worse %+.3f)",
				c.name, v.Outcome, v.Wins, ties, c.want, c.wins, c.ties, v.Worse)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestFailureRose(t *testing.T) {
	cases := []struct {
		bf, ba, hf, ha int
		want           bool
	}{
		{0, 200, 0, 200, false},
		{0, 200, 1, 200, true},
		{2, 200, 2, 200, false},
		{2, 200, 1, 200, false},
		{1, 100, 1, 50, true}, // same count, fewer attempts: a larger share
		{0, 0, 0, 10, false},
	}
	for _, c := range cases {
		if got := failureRose(c.bf, c.ba, c.hf, c.ha); got != c.want {
			t.Errorf("failureRose(%d/%d -> %d/%d) = %v, want %v", c.bf, c.ba, c.hf, c.ha, got, c.want)
		}
	}
}
