package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"vwchar/internal/cachetier"
	"vwchar/internal/experiment"
	"vwchar/internal/faults"
	"vwchar/internal/load"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/runner"
	"vwchar/internal/sim"
	"vwchar/internal/tiers"
)

// workload is one named input the benchmark times. Set-up runs in
// rounds: round 0 leaves the process ready for the timed phase, and
// later rounds repeat the same work so its time can be reported as a
// median. A unit is the piece of work the timed phase repeats.
type workload interface {
	// setup returns the round's golden dataset build time in ms.
	setup(round int, tr *tracer) (buildMs float64, err error)
	unit(tr *tracer) (unitResult, error)
	// layerCalls makes the traced-only calls into single layers after
	// the profiled phase; last is the phase's final unit.
	layerCalls(tr *tracer, last unitResult) (layerTimes, error)
}

// unitResult is one unit's output, as the output check needs it.
type unitResult struct {
	attempted, failed int
	requests          uint64 // simulated requests completed
	digest            string
	problems          []string // broken invariants and failed jobs
	results           []*experiment.Result
	sweep             *runner.SweepResult
	tableMs           float64
}

// layerTimes holds the per-call timings of the traced-only calls.
type layerTimes struct {
	runMs      []float64 // experiment.Run on each job config
	attachUs   []float64 // Snapshot.Attach + App.Release
	workers    int
	mismatched int // reruns whose output differs from the sweep's
}

// gridWorkload is the paper's env x mix grid run through runner.Run.
type gridWorkload struct {
	spec    runner.SweepSpec
	dataset rubis.DatasetConfig
	// snap is the golden dataset the set-up rounds built; the timed
	// phase of the shared grid attaches to it.
	snap *rubis.Snapshot
}

// gridScale sizes a grid: the cmd/characterize defaults for the
// benchmark, smaller ones for tests.
type gridScale struct {
	envs         []experiment.Env
	mixes        []experiment.MixKind
	clients      int
	seconds      float64
	replications int
}

var characterizeScale = gridScale{
	envs:         experiment.Envs(),
	mixes:        experiment.Mixes(),
	clients:      200,
	seconds:      120,
	replications: 2,
}

func newGrid(seed uint64, shared bool, sc gridScale) *gridWorkload {
	points := runner.Grid(sc.envs, sc.mixes, func(c *experiment.Config) {
		c.Clients = sc.clients
		c.Duration = sim.Seconds(sc.seconds)
	})
	return &gridWorkload{
		spec: runner.SweepSpec{
			Points:         points,
			Replications:   sc.replications,
			RootSeed:       seed,
			Workers:        runtime.NumCPU(),
			SharedDatasets: shared,
		},
		dataset: points[0].Config.Dataset,
	}
}

// setup builds the golden dataset the grid's first job attaches to and
// runs that job once as a warm-up. On the shared grid the golden is the
// one every job attaches to: round 0 puts it in the process-wide
// snapshot cache, later rounds rebuild it outside the cache. On the
// fresh grid every job populates its own dataset inside the timed
// phase, so each round builds a golden under a seed of its own, as a
// fresh replication would.
func (g *gridWorkload) setup(round int, tr *tracer) (float64, error) {
	defer tr.end(tr.begin("setup.round"))
	sp := tr.begin("runner.SweepSpec.Jobs")
	jobs := g.spec.Jobs()
	tr.end(sp)
	warm := jobs[0].Config
	if !g.spec.SharedDatasets {
		warm.DatasetSeed = rng.NewSource(g.spec.RootSeed).SeedFor(fmt.Sprintf("warm-up-%d", round))
	}
	fromCache := round == 0 || !g.spec.SharedDatasets
	snap, ms, err := buildGolden(tr, g.dataset, warm.DatasetSeed, fromCache)
	if err != nil {
		return 0, err
	}
	if round == 0 {
		g.snap = snap
	}
	sp = tr.begin("experiment.Run")
	_, err = experiment.Run(warm)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("warm-up run: %w", err)
	}
	return ms, nil
}

// buildGolden populates and seals a dataset, through the process-wide
// snapshot cache when fromCache is set, and returns it with its build
// time in milliseconds.
func buildGolden(tr *tracer, ds rubis.DatasetConfig, seed uint64, fromCache bool) (*rubis.Snapshot, float64, error) {
	name, build := "rubis.NewSnapshot", rubis.NewSnapshot
	if fromCache {
		name, build = "rubis.SharedSnapshot", rubis.SharedSnapshot
	}
	sp := tr.begin(name)
	t0 := time.Now()
	snap, err := build(ds, seed)
	ms := msSince(t0)
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("golden dataset: %w", err)
	}
	return snap, ms, nil
}

// unit runs the whole sweep, renders its table as cmd/characterize
// does, and digests the table.
func (g *gridWorkload) unit(tr *tracer) (unitResult, error) {
	sp := tr.begin("runner.Run")
	sr, sweepErr := runner.Run(g.spec)
	tr.end(sp)
	if sr == nil {
		return unitResult{}, fmt.Errorf("sweep: %w", sweepErr)
	}
	var buf bytes.Buffer
	sp = tr.begin("runner.WriteTable")
	t0 := time.Now()
	err := sr.WriteTable(&buf)
	tableMs := msSince(t0)
	tr.end(sp)
	if err != nil {
		return unitResult{}, fmt.Errorf("sweep table: %w", err)
	}
	u := unitResult{
		digest:  digestBytes(buf.Bytes()),
		sweep:   sr,
		tableMs: tableMs,
	}
	for _, f := range sr.Failures {
		u.failed++
		u.problems = append(u.problems, f.Error())
	}
	for i := range sr.Points {
		for _, r := range sr.Points[i].Reps {
			u.attempted++
			if r == nil {
				continue
			}
			u.requests += r.Completed
			u.results = append(u.results, r)
			u.problems = append(u.problems, invariants(r)...)
		}
	}
	return u, nil
}

// layerCalls reruns every job of the last sweep through experiment.Run
// one at a time, checking each output against the sweep's, and times
// attaching to the golden the set-up built.
func (g *gridWorkload) layerCalls(tr *tracer, last unitResult) (layerTimes, error) {
	lt := layerTimes{workers: g.spec.Workers}
	for _, job := range g.spec.Jobs() {
		sp := tr.begin("experiment.Run")
		t0 := time.Now()
		res, err := experiment.Run(job.Config)
		lt.runMs = append(lt.runMs, msSince(t0))
		tr.end(sp)
		if err != nil {
			return lt, fmt.Errorf("rerun %s rep %d: %w", job.Point, job.Rep, err)
		}
		want := last.sweep.Points[job.PointIndex].Reps[job.Rep]
		if want == nil || resultDigest(res) != resultDigest(want) {
			lt.mismatched++
		}
	}
	lt.attachUs = timeAttach(tr, g.snap)
	return lt, nil
}

// attachRounds is how many Attach+Release pairs the traced run times.
const attachRounds = 200

func timeAttach(tr *tracer, snap *rubis.Snapshot) []float64 {
	defer tr.end(tr.begin("rubis.Attach+Release"))
	us := make([]float64, 0, attachRounds)
	for i := 0; i < attachRounds; i++ {
		t0 := time.Now()
		snap.Attach().Release()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us
}

// clusterWorkload is one open-loop run of the cache and queue tiers
// under a flash crowd, a limping DB host and a mid-crowd cache crash.
type clusterWorkload struct {
	cfg  experiment.Config
	snap *rubis.Snapshot
}

func newCluster(seed uint64, seconds float64) (*clusterWorkload, error) {
	// A hot dataset: few categories and regions make the search
	// fragments hot, and a small buffer pool keeps DB fills slow.
	ds := rubis.DefaultDataset()
	ds.Categories = 5
	ds.Regions = 8
	ds.BufferPages = 250

	crowd, err := load.Scenario("hot-key-expiry")
	if err != nil {
		return nil, err
	}
	crowd.Rate *= 2
	cache := cachetier.DefaultCacheSpec()
	cache.TTLSeconds = 1
	cache.Leases = true
	queue := cachetier.DefaultQueueSpec()

	cfg := experiment.DefaultConfig(experiment.Virtualized, experiment.Mix70Browse)
	cfg.Duration = sim.Seconds(seconds)
	cfg.Seed = seed
	cfg.Dataset = ds
	cfg.DatasetSeed = rng.NewSource(seed).SeedFor("dataset")
	cfg.Load = &crowd
	// Round-robin placement puts web replica 0 and the DB primary
	// (VM 2) on machine 0 and web replica 1 on machine 1.
	cfg.Topology = &tiers.Topology{WebReplicas: 2, Machines: 2}
	cfg.Cache = &cache
	cfg.Queue = &queue
	cfg.Resilience = faults.DefaultResilience()
	cfg.Faults = &faults.Schedule{
		CacheCrash: &faults.Component{AtSeconds: 180, MTTRSeconds: 2},
		SlowNode:   &faults.Component{AtSeconds: 170, MTTRSeconds: 80, Value: 4, Targets: []int{0}},
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &clusterWorkload{cfg: cfg}, nil
}

// setup builds the hot golden dataset and runs once as a warm-up:
// round 0 through the snapshot cache the run attaches to, later rounds
// outside it.
func (c *clusterWorkload) setup(round int, tr *tracer) (float64, error) {
	defer tr.end(tr.begin("setup.round"))
	snap, ms, err := buildGolden(tr, c.cfg.Dataset, c.cfg.DatasetSeed, round == 0)
	if err != nil {
		return 0, err
	}
	if round == 0 {
		c.snap = snap
	}
	sp := tr.begin("experiment.Run")
	_, err = experiment.Run(c.cfg)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("warm-up run: %w", err)
	}
	return ms, nil
}

func (c *clusterWorkload) unit(tr *tracer) (unitResult, error) {
	sp := tr.begin("experiment.Run")
	res, err := experiment.Run(c.cfg)
	tr.end(sp)
	u := unitResult{attempted: 1}
	if err != nil {
		u.failed = 1
		u.problems = append(u.problems, err.Error())
		return u, nil
	}
	u.requests = res.Completed
	u.digest = resultDigest(res)
	u.results = []*experiment.Result{res}
	u.problems = invariants(res)
	return u, nil
}

// layerCalls times attaching to the hot golden; the cluster run makes
// no runner calls, and its experiment.Run calls are the units.
func (c *clusterWorkload) layerCalls(tr *tracer, _ unitResult) (layerTimes, error) {
	return layerTimes{workers: 1, attachUs: timeAttach(tr, c.snap)}, nil
}

// invariants checks a run's accounting: every issued request has
// exactly one outcome, and the cache hit at most as often as it was
// asked.
func invariants(r *experiment.Result) []string {
	var bad []string
	if rs := r.Requests; rs != nil {
		concluded := rs.Served + rs.TimedOut + rs.Shed + rs.Failed + rs.Degraded
		if concluded > rs.Issued || concluded+rs.InFlight != rs.Issued {
			bad = append(bad, fmt.Sprintf("request accounting: issued %d != served %d + timed out %d + shed %d + failed %d + degraded %d + in flight %d",
				rs.Issued, rs.Served, rs.TimedOut, rs.Shed, rs.Failed, rs.Degraded, rs.InFlight))
		}
	}
	if cs := r.Cache; cs != nil && cs.Hits > cs.Gets {
		bad = append(bad, fmt.Sprintf("cache accounting: %d hits of %d gets", cs.Hits, cs.Gets))
	}
	return bad
}

// resultDigest hashes what a run reports: its scalars, per-interaction
// latencies and the request, session, cache, queue and guard
// accounting. Floats print in their shortest exact form, so equal
// digests mean equal bits.
func resultDigest(r *experiment.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "completed=%d errors=%d write_fraction=%v mean=%v p95=%v growths=%d\n",
		r.Completed, r.Errors, r.WriteFraction, r.MeanRespTime, r.P95RespTime, r.WebGrowths)
	fmt.Fprintf(h, "guest_cycles=%v dom0_buffers=%v\n", r.GuestPhysCycles, r.Dom0BuffersMB)
	fmt.Fprintf(h, "pairs=%+v\ninteractions=%+v\n", r.PairStats, r.PerInteraction)
	writeOptional(h, "requests", r.Requests)
	writeOptional(h, "sessions", r.Sessions)
	writeOptional(h, "cache", r.Cache)
	writeOptional(h, "queue", r.Queue)
	writeOptional(h, "guard", r.Guard)
	return hex.EncodeToString(h.Sum(nil))
}

func writeOptional[T any](w io.Writer, name string, v *T) {
	if v == nil {
		fmt.Fprintf(w, "%s=none\n", name)
		return
	}
	fmt.Fprintf(w, "%s=%+v\n", name, *v)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
