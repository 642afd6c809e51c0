// Command hostbench measures how much host time the simulator takes to
// run the paper's sweeps and a cluster run with every optional tier,
// and checks that their simulated output is correct.
//
// It works from outside the program: it times its own calls into
// runner, experiment and rubis, reads the counts those packages report,
// and in a traced run takes a CPU profile of its own process and
// charges each sample to a vwchar/internal layer. All timings are host
// time; the simulated statistics are deterministic and serve only as
// the output check.
//
// Usage, from the root of the repository:
//
//	bash hostbench/run.sh --workload grid-shared --seed 42 --seconds 10 --trace 0
//	bash hostbench/run.sh compare [--bench BENCHMARK.json] base.jsonl head.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics (see layers.json) with --trace 1. A
// human-readable report goes to standard error. Each run also appends
// a full record, with the host fingerprint, to
// .bench_build/hostbench/results.jsonl, which compare reads; a traced
// run writes its spans beside it.
//
// The benchmark is a Go module of its own, so the repository's
// `go test ./...` does not reach it; run its tests with `go test ./...`
// from this directory.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

//go:embed layers.json
var layersJSON []byte

//go:embed expected.json
var expectedJSON []byte

// catalogue is layers.json: every metric the benchmark reports.
type catalogue struct {
	EndToEnd []metricDef `json:"end_to_end"`
	Layers   []struct {
		Layer   string      `json:"layer"`
		Moves   string      `json:"moves"`
		Metrics []metricDef `json:"metrics"`
	} `json:"layers"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	What   string `json:"what"`
}

func (c catalogue) perLayer() []metricDef {
	var out []metricDef
	for _, l := range c.Layers {
		out = append(out, l.Metrics...)
	}
	return out
}

func loadCatalogue() (catalogue, error) {
	var c catalogue
	if err := json.Unmarshal(layersJSON, &c); err != nil {
		return c, fmt.Errorf("layers.json: %w", err)
	}
	return c, nil
}

// expected holds the recorded output digest of each workload at the
// recorded seed.
type expected struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// workloadNames lists the workloads in the order BENCHMARK.json gives.
var workloadNames = []string{"grid-shared", "grid-fresh", "cluster-cache"}

// clusterSeconds is the simulated length of the cluster-cache run.
const clusterSeconds = 300

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "grid-shared":
		return newGrid(seed, true, characterizeScale), nil
	case "grid-fresh":
		return newGrid(seed, false, characterizeScale), nil
	case "cluster-cache":
		return newCluster(seed, clusterSeconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// setupRounds is how many times set-up runs; setup_s is their median.
const setupRounds = 5

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed; the configs are generated from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in host seconds")
	fs.IntVar(&trace, "trace", 0, "1 for a traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "hostbench"), "directory for result records and spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "hostbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	line, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the full account of one run, appended to results.jsonl.
type record struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Trace       bool        `json:"trace"`
	Seconds     float64     `json:"seconds"`
	Fingerprint fingerprint `json:"fingerprint"`
	Time        string      `json:"time"`
	Correct     bool        `json:"correct"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	FailedFrac  float64     `json:"failed_frac"`
	Digest      string      `json:"digest"`
	DigestCheck string      `json:"digest_check"`
	Units       int         `json:"units"`
	// StealFrac is the host CPU time stolen by the hypervisor during the
	// timed phase, as a share of all host CPU time.
	StealFrac float64 `json:"steal_frac"`
	// UnitWall is every timed unit's wall time in seconds, in run order.
	UnitWall  []float64          `json:"unit_wall_s"`
	Metrics   map[string]value   `json:"metrics"`
	Summaries map[string]summary `json:"summaries"`
	Problems  []string           `json:"problems,omitempty"`
}

func run(o options, report io.Writer) (string, error) {
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return "", fmt.Errorf("expected.json: %w", err)
	}
	if o.seconds <= 0 {
		return "", errors.New("--seconds must be positive")
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return "", err
	}
	want := ""
	if o.seed == exp.Seed {
		want = exp.Digests[o.workload]
	}
	return measure(w, o, want, report)
}

// measure sets the workload up, runs its timed phase and checks every
// unit's output against want, the recorded digest ("" when none is
// recorded). It returns the result line.
func measure(w workload, o options, want string, report io.Writer) (string, error) {
	cat, err := loadCatalogue()
	if err != nil {
		return "", err
	}
	chk := &checker{want: want}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	root := tr.begin("hostbench " + o.workload)
	setupS := make([]float64, 0, setupRounds)
	buildMs := make([]float64, 0, setupRounds)
	sp := tr.begin("setup")
	for r := 0; r < setupRounds; r++ {
		runtime.GC()
		t0 := time.Now()
		ms, err := w.setup(r, tr)
		if err != nil {
			return "", fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		buildMs = append(buildMs, ms)
	}
	tr.end(sp)

	rec := record{
		Workload:    o.workload,
		Seed:        o.seed,
		Trace:       o.trace,
		Seconds:     o.seconds,
		Fingerprint: hostFingerprint(),
		Time:        time.Now().UTC().Format(time.RFC3339),
		Summaries:   map[string]summary{"setup_s": summarize(setupS)},
	}
	var metrics map[string]float64
	var defs []metricDef
	steal := startSteal()
	if !o.trace {
		ph, err := runPhase(w, o.seconds, nil, chk)
		if err != nil {
			return "", err
		}
		rec.Units, rec.UnitWall = ph.units, ph.wall
		metrics = endToEnd(ph, setupS, &rec)
		defs = cat.EndToEnd
	} else {
		metrics, err = tracedRun(w, o, cat, tr, chk, buildMs, &rec)
		if err != nil {
			return "", err
		}
		defs = cat.perLayer()
	}
	rec.StealFrac = steal.frac()
	tr.end(root)

	rec.Attempted, rec.Failed = chk.attempted, chk.failed
	rec.FailedFrac = float64(chk.failed) / float64(max(chk.attempted, 1))
	rec.Correct = chk.failed == 0 && chk.attempted > 0
	rec.Digest, rec.DigestCheck = chk.digest, chk.status()
	rec.Problems = chk.problems
	rec.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s is in layers.json but was not measured", d.Name)
		}
		rec.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}

	writeReport(report, &rec, defs)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return "", err
	}
	if err := appendRecord(filepath.Join(o.out, "results.jsonl"), &rec); err != nil {
		return "", err
	}
	if tr != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return "", err
		}
		fmt.Fprintf(report, "spans: %s\n", path)
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	return string(line), err
}

// checker applies the output check to every unit: the recorded digest
// at the recorded seed, otherwise the first unit's digest, and every
// accounting invariant. A unit that fails the check counts every job
// it attempted as failed.
type checker struct {
	want              string
	digest            string
	mismatch          bool
	attempted, failed int
	problems          []string
}

// maxProblems bounds the problems a record keeps.
const maxProblems = 20

func (c *checker) check(u unitResult) {
	c.attempted += u.attempted
	if c.digest == "" {
		c.digest = u.digest
	}
	ref := c.want
	if ref == "" {
		ref = c.digest
	}
	bad := u.problems
	if u.digest != ref {
		c.mismatch = true
		bad = append(bad, fmt.Sprintf("output digest %s, want %s", u.digest, ref))
	}
	if len(bad) > 0 {
		c.failed += u.attempted
		c.note(bad...)
	}
}

func (c *checker) note(problems ...string) {
	for _, p := range problems {
		if len(c.problems) < maxProblems {
			c.problems = append(c.problems, p)
		}
	}
}

func (c *checker) status() string {
	switch {
	case c.mismatch:
		return "mismatch"
	case c.want != "":
		return "matches recorded digest"
	default:
		return "unrecorded seed: units agree with each other"
	}
}

// phase is the measurements of one timed phase, one entry per unit.
type phase struct {
	units                      int
	wall, cpu, rate, allocsReq []float64
	tableMs                    []float64 // grids only
	last                       unitResult
}

// runPhase repeats the workload's unit until seconds have passed,
// measuring each unit's wall time, CPU time and allocations.
func runPhase(w workload, seconds float64, tr *tracer, chk *checker) (phase, error) {
	var ph phase
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var m0, m1 runtime.MemStats
	for ph.units == 0 || time.Now().Before(deadline) {
		// Every unit starts from a collected heap, so one unit's garbage
		// is not charged to the next.
		runtime.GC()
		runtime.ReadMemStats(&m0)
		c0 := cpuSeconds()
		t0 := time.Now()
		sp := tr.begin("unit")
		u, err := w.unit(tr)
		tr.end(sp)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		runtime.ReadMemStats(&m1)
		if err != nil {
			return ph, err
		}
		chk.check(u)
		ph.units++
		ph.wall = append(ph.wall, wall)
		ph.cpu = append(ph.cpu, cpu)
		reqs := float64(max(u.requests, 1))
		ph.rate = append(ph.rate, float64(u.requests)/wall)
		ph.allocsReq = append(ph.allocsReq, float64(m1.Mallocs-m0.Mallocs)/reqs)
		if u.sweep != nil {
			ph.tableMs = append(ph.tableMs, u.tableMs)
		}
		ph.last = u
	}
	return ph, nil
}

func endToEnd(ph phase, setupS []float64, rec *record) map[string]float64 {
	sums := map[string]summary{
		"wall_s":         summarize(ph.wall),
		"sim_req_per_s":  summarize(ph.rate),
		"cpu_s":          summarize(ph.cpu),
		"allocs_per_req": summarize(ph.allocsReq),
	}
	m := map[string]float64{
		"setup_s":     median(setupS),
		"peak_rss_mb": peakRSSMB(),
	}
	for name, s := range sums {
		m[name] = s.Median
		rec.Summaries[name] = s
	}
	return m
}

// tracedRun measures an untraced phase and a traced, profiled phase of
// half the run each, then makes the traced-only layer calls.
func tracedRun(w workload, o options, cat catalogue, tr *tracer, chk *checker, buildMs []float64, rec *record) (map[string]float64, error) {
	sp := tr.begin("phase.untraced")
	base, err := runPhase(w, o.seconds/2, nil, chk)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	var prof bytes.Buffer
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	sp = tr.begin("phase.traced")
	traced, err := runPhase(w, o.seconds/2, tr, chk)
	tr.end(sp)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&g1)
	if err != nil {
		return nil, err
	}
	rec.Units = base.units + traced.units
	rec.UnitWall = append(append([]float64(nil), base.wall...), traced.wall...)

	sp = tr.begin("layer-calls")
	lt, err := w.layerCalls(tr, traced.last)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if lt.mismatched > 0 {
		chk.failed += lt.mismatched
		chk.note(fmt.Sprintf("%d of %d experiment.Run reruns differ from the sweep's output", lt.mismatched, len(lt.runMs)))
	}
	chk.attempted += len(lt.runMs)

	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	att := attribute(stacks)
	m := shareMetrics(att, cat)

	baseWall, tracedWall := summarize(base.wall), summarize(traced.wall)
	rec.Summaries["wall_s.untraced"] = baseWall
	rec.Summaries["wall_s.traced"] = tracedWall
	m["trace.overhead_frac"] = tracedWall.Median/baseWall.Median - 1

	// The grids time their reruns of the sweep's jobs; the cluster run
	// times its own units, and uses no runner.
	runMs := lt.runMs
	if runMs == nil {
		for _, s := range traced.wall {
			runMs = append(runMs, s*1e3)
		}
	}
	runs := summarize(runMs)
	rec.Summaries["experiment.run_ms"] = runs
	m["experiment.run_p50_ms"] = runs.Median
	m["experiment.run_p90_ms"] = runs.P90
	m["experiment.runs"] = float64(runs.N)
	m["runner.parallel_eff"] = 0
	m["runner.table_ms"] = 0
	if lt.runMs != nil {
		total := 0.0
		for _, ms := range lt.runMs {
			total += ms
		}
		m["runner.parallel_eff"] = total / 1e3 / (tracedWall.Median * float64(lt.workers))
		m["runner.table_ms"] = median(traced.tableMs)
	}
	m["rubis.snapshot_build_ms"] = median(buildMs)
	m["rubis.attach_us"] = median(lt.attachUs)
	m["runtime.gc_cycles"] = float64(g1.NumGC - g0.NumGC)
	m["runtime.gc_pause_ms"] = float64(g1.PauseTotalNs-g0.PauseTotalNs) / 1e6
	for k, v := range unitCounts(traced.last) {
		m[k] = v
	}
	return m, nil
}

// shareMetrics turns an attribution into the share and sample-count
// metrics: one pair per layer the catalogue lists a cpu_share for, one
// for every other program package together, one per group, and the
// GC bucket.
func shareMetrics(a attribution, cat catalogue) map[string]float64 {
	m := map[string]float64{"profile.samples": float64(a.Total)}
	put := func(prefix string, n int64) {
		m[prefix+"_share"] = a.share(n)
		m[prefix+"_samples"] = float64(n)
	}
	listed := a.Layers[layerRuntime]
	for _, d := range cat.perLayer() {
		if layer, ok := strings.CutSuffix(d.Name, ".cpu_share"); ok && layer != "other" {
			put(layer+".cpu", a.Layers[layer])
			listed += a.Layers[layer]
		}
	}
	put("other.cpu", a.Total-listed)
	put("runtime.gc", a.Layers[layerRuntime])
	for _, g := range groups {
		put(g.name, a.Groups[g.name])
	}
	return m
}

// unitCounts reads the counts the program reports for one unit.
func unitCounts(u unitResult) map[string]float64 {
	var completed, errs, gets, hits, stampedes, published, drained, sessions uint64
	for _, r := range u.results {
		completed += r.Completed
		errs += r.Errors
		if c := r.Cache; c != nil {
			gets += c.Gets
			hits += c.Hits
			stampedes += c.StampedeFetches
		}
		if q := r.Queue; q != nil {
			published += q.Published
			drained += q.Drained
		}
		if s := r.Sessions; s != nil {
			sessions += s.Started
		}
	}
	hitRatio := 0.0
	if gets > 0 {
		hitRatio = float64(hits) / float64(gets)
	}
	return map[string]float64{
		"tiers.completed":            float64(completed),
		"tiers.errors":               float64(errs),
		"cachetier.hit_ratio":        hitRatio,
		"cachetier.lookups":          float64(gets),
		"cachetier.stampede_fetches": float64(stampedes),
		"cachetier.queue_published":  float64(published),
		"cachetier.queue_drained":    float64(drained),
		"load.sessions_started":      float64(sessions),
	}
}

func writeReport(w io.Writer, rec *record, defs []metricDef) {
	fmt.Fprintf(w, "hostbench %s seed %d trace %v: %d units over %.0f s\n", rec.Workload, rec.Seed, rec.Trace, rec.Units, rec.Seconds)
	fp := rec.Fingerprint
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s; %.1f%% of host CPU stolen while timing\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, 100*rec.StealFrac)
	fmt.Fprintf(w, "output: %s (%s); attempted %d, failed %d, failed_frac %.4f\n", rec.DigestCheck, rec.Digest, rec.Attempted, rec.Failed, rec.FailedFrac)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-28s %14.6g %-6s", d.Name, rec.Metrics[d.Name].Value, d.Unit)
		if s, ok := rec.Summaries[d.Name]; ok {
			line += fmt.Sprintf("  n=%d q1=%.6g q3=%.6g p90=%.6g spread=%.3f", s.N, s.Q1, s.Q3, s.P90, s.spread())
		}
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(rec.Summaries))
	for name := range rec.Summaries {
		if _, ok := rec.Metrics[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		s := rec.Summaries[name]
		fmt.Fprintf(w, "  %-28s median %.6g n=%d q1=%.6g q3=%.6g p90=%.6g\n", name, s.Median, s.N, s.Q1, s.Q3, s.P90)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
