package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchMetric is one end-to-end metric of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is the comparison of one metric on one workload between the
// parent's runs (base) and the change's (head).
type verdict struct {
	Base, Head   summary
	Pairs        int
	Wins, Losses int // pairs the change won and lost; ties count for neither
	// Worse is how much worse the change's median is, as a share of the
	// parent's; negative when it is better.
	Worse   float64
	Outcome string
}

const (
	outcomeImproved   = "improved"
	outcomeRegressed  = "regressed"
	outcomeUnresolved = "unresolved"
	outcomeWithin     = "within bound"
)

// judge compares two result sets of one metric. The i-th runs of each
// side form a pair. The change improved when it wins at least nine
// pairs in ten and its median is better than the parent's by more than
// the parent's interquartile range. It regressed when its median is
// worse than the parent's by more than bound. Otherwise, when either
// side's spread (interquartile range over median) is wider than bound,
// the result is unresolved, unless every run of the change is better
// than every run of the parent.
func judge(base, head []float64, better string, bound float64) verdict {
	sign := 1.0 // +1 when larger is worse
	if better == "higher" {
		sign = -1
	}
	v := verdict{Base: summarize(base), Head: summarize(head), Pairs: min(len(base), len(head))}
	for i := 0; i < v.Pairs; i++ {
		switch d := sign * (head[i] - base[i]); {
		case d < 0:
			v.Wins++
		case d > 0:
			v.Losses++
		}
	}
	v.Worse = sign * (v.Head.Median - v.Base.Median) / math.Abs(v.Base.Median)
	baseIQR := v.Base.Q3 - v.Base.Q1
	gain := -sign * (v.Head.Median - v.Base.Median)
	switch {
	case v.Worse > bound:
		v.Outcome = outcomeRegressed
	case v.Pairs > 0 && v.Wins*10 >= 9*v.Pairs && gain > baseIQR:
		v.Outcome = outcomeImproved
	case math.Max(v.Base.spread(), v.Head.spread()) > bound && !allBetter(base, head, sign):
		v.Outcome = outcomeUnresolved
	default:
		v.Outcome = outcomeWithin
	}
	return v
}

// allBetter reports whether every head value beats every base value.
func allBetter(base, head []float64, sign float64) bool {
	if len(base) == 0 || len(head) == 0 {
		return false
	}
	worstHead, bestBase := math.Inf(-1), math.Inf(1)
	for _, h := range head {
		worstHead = math.Max(worstHead, sign*h)
	}
	for _, b := range base {
		bestBase = math.Min(bestBase, sign*b)
	}
	return worstHead < bestBase
}

// failureRose reports whether the change failed a larger share of what
// it attempted than the parent did.
func failureRose(baseFailed, baseAttempted, headFailed, headAttempted int) bool {
	share := func(f, a int) float64 { return float64(f) / float64(max(a, 1)) }
	return share(headFailed, headAttempted) > share(baseFailed, baseAttempted)
}

// compareMain reads two result sets (results.jsonl files written by
// untraced runs) and judges every end-to-end metric of BENCHMARK.json
// on every workload both sets ran. It exits 1 when a metric regressed
// or the failure share rose.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: hostbench compare [--bench BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	var def struct {
		EndToEnd []benchMetric `json:"end_to_end"`
	}
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hostbench compare:", err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "hostbench compare:", err)
		return 2
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "hostbench compare:", err)
		return 2
	}
	bad := false
	for _, wl := range workloadNames {
		b, h := base[wl], head[wl]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		if b[0].Fingerprint != h[0].Fingerprint {
			fmt.Fprintf(stdout, "%s: hosts or commits differ: %+v vs %+v\n", wl, b[0].Fingerprint, h[0].Fingerprint)
		}
		bf, ba, hf, ha := 0, 0, 0, 0
		for _, r := range b {
			bf, ba = bf+r.Failed, ba+r.Attempted
		}
		for _, r := range h {
			hf, ha = hf+r.Failed, ha+r.Attempted
		}
		fmt.Fprintf(stdout, "%s: %d parent runs, %d change runs; failed %d/%d -> %d/%d\n", wl, len(b), len(h), bf, ba, hf, ha)
		if failureRose(bf, ba, hf, ha) {
			fmt.Fprintf(stdout, "  failure share rose\n")
			bad = true
		}
		for _, m := range def.EndToEnd {
			v := judge(metricValues(b, m.Name), metricValues(h, m.Name), m.Better, m.Bound)
			fmt.Fprintf(stdout, "  %-16s %-12s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  worse %+.2f%% (bound %.0f%%)  won %d/%d lost %d\n",
				m.Name, v.Outcome, v.Base.Median, v.Base.Q1, v.Base.Q3, v.Head.Median, v.Head.Q1, v.Head.Q3,
				100*v.Worse, 100*m.Bound, v.Wins, v.Pairs, v.Losses)
			if v.Outcome == outcomeRegressed {
				bad = true
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// readRecords reads the untraced records of a results.jsonl file,
// grouped by workload in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func metricValues(recs []record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}
