package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"vwchar/internal/experiment"
)

var tinyScale = gridScale{
	envs:         experiment.Envs(),
	mixes:        []experiment.MixKind{experiment.MixBrowsing, experiment.MixBidding},
	clients:      10,
	seconds:      30,
	replications: 1,
}

func runUnit(t *testing.T, w workload) unitResult {
	t.Helper()
	if _, err := w.setup(0, nil); err != nil {
		t.Fatal(err)
	}
	u, err := w.unit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.failed != 0 || len(u.problems) != 0 || u.requests == 0 {
		t.Fatalf("unit failed %d of %d with %d requests: %v", u.failed, u.attempted, u.requests, u.problems)
	}
	return u
}

func TestDigestRepeatsAtOneSeed(t *testing.T) {
	for _, shared := range []bool{true, false} {
		a := runUnit(t, newGrid(7, shared, tinyScale))
		b := runUnit(t, newGrid(7, shared, tinyScale))
		if a.digest != b.digest || a.requests != b.requests {
			t.Errorf("shared=%v: two runs at one seed digest %s and %s", shared, a.digest, b.digest)
		}
		if c := runUnit(t, newGrid(8, shared, tinyScale)); c.digest == a.digest {
			t.Errorf("shared=%v: seeds 7 and 8 give the same digest", shared)
		}
	}

	newTiny := func(seed uint64) workload {
		w, err := newCluster(seed, 200)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := runUnit(t, newTiny(7)), runUnit(t, newTiny(7))
	if a.digest != b.digest {
		t.Errorf("cluster: two runs at one seed digest %s and %s", a.digest, b.digest)
	}
	r := a.results[0]
	if r.Cache == nil || r.Queue == nil || r.Requests == nil || r.Sessions == nil {
		t.Fatal("cluster run deployed no cache, queue, guard or open loop")
	}
	if r.Cache.Hits == 0 || r.Queue.Published == 0 {
		t.Errorf("cluster run: %d cache hits, %d queue writes; want both > 0", r.Cache.Hits, r.Queue.Published)
	}
}

func TestInvariantsCatchBrokenAccounting(t *testing.T) {
	r := &experiment.Result{Requests: &experiment.RequestStats{Issued: 10, Served: 7, Failed: 1, InFlight: 2}}
	if bad := invariants(r); len(bad) != 0 {
		t.Errorf("balanced accounting flagged: %v", bad)
	}
	r.Requests.InFlight = 3
	if bad := invariants(r); len(bad) != 1 {
		t.Errorf("issued 10 but 11 accounted for: got %v", bad)
	}
	// An underflowed in-flight count still sums to Issued modulo 2^64.
	r.Requests = &experiment.RequestStats{Issued: 5, Served: 6}
	r.Requests.InFlight = r.Requests.Issued - r.Requests.Served
	if bad := invariants(r); len(bad) != 1 {
		t.Errorf("served more than issued: got %v", bad)
	}
}

func TestCheckerFailsEveryJobOfAMismatchedUnit(t *testing.T) {
	c := &checker{}
	c.check(unitResult{attempted: 4, digest: "a"})
	c.check(unitResult{attempted: 4, digest: "a"})
	c.check(unitResult{attempted: 4, digest: "b"})
	c.check(unitResult{attempted: 4, digest: "a", problems: []string{"broken"}})
	if c.attempted != 16 || c.failed != 8 || !c.mismatch {
		t.Errorf("attempted %d failed %d mismatch %v; want 16, 8, true", c.attempted, c.failed, c.mismatch)
	}
	recorded := &checker{want: "b"}
	recorded.check(unitResult{attempted: 4, digest: "a"})
	if recorded.failed != 4 {
		t.Errorf("a unit differing from the recorded digest passed")
	}
}

// TestMeasureReportsEveryMetric runs a tiny grid through both modes and
// checks the result line carries exactly the catalogue's metrics.
func TestMeasureReportsEveryMetric(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		o := options{workload: "tiny", seed: 7, seconds: 0.01, trace: trace, out: t.TempDir()}
		line, err := measure(newGrid(7, true, tinyScale), o, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		defs := cat.EndToEnd
		if trace {
			defs = cat.perLayer()
		}
		var want, got []string
		for _, d := range defs {
			want = append(want, d.Name)
			if v := res.Metrics[d.Name]; v.Unit != d.Unit {
				t.Errorf("%s: unit %q, want %q", d.Name, v.Unit, d.Unit)
			}
		}
		for name := range res.Metrics {
			got = append(got, name)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: metrics %v, want %v", trace, got, want)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace=%v: correct %v, attempted %d, failed %d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if !trace {
			for _, name := range want {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and layers.json
// naming the same metrics and workloads.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchMetric           `json:"end_to_end"`
		PerLayer  []benchMetric           `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	same := func(kind string, bench []benchMetric, defs []metricDef) {
		if len(bench) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, layers.json %d", kind, len(bench), len(defs))
			return
		}
		for i, d := range defs {
			b := bench[i]
			if b.Name != d.Name || b.Unit != d.Unit || b.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, layers.json %s %s %s", kind, i, b.Name, b.Unit, b.Better, d.Name, d.Unit, d.Better)
			}
		}
	}
	same("end_to_end", def.EndToEnd, cat.EndToEnd)
	same("per_layer", def.PerLayer, cat.perLayer())
}
