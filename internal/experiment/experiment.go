// Package experiment assembles and runs the paper's experiments: the
// RUBiS three-tier system under a chosen client mix, deployed either in
// VMs on one Xen host (Section 4.1) or on two physical servers (Section
// 4.2), profiled by the sysstat collector for 600 two-second samples.
//
// Everything a Config can add to the paper's setup is an optional
// layer, declared once in a fixed list: request accounting (with the
// guard counters), fault injector, health monitor, degradation (crash
// hazard and brownout), autoscaler, cluster gauges, cache, queue. Run
// builds the list after assembling the deployment and drives each
// phase across it: series before window capacity is reserved, window
// hooks after every driver's rotation, harvest after the kernel stops.
// The order is part of the determinism contract. The injector arms its
// timeline before the monitor starts probing, so their kernel events
// keep their sequence order; at each window boundary the hazard
// crashes replicas first, the brownout controller re-levels on the
// result, and the autoscaler decides last, on the window that just
// closed.
package experiment

import (
	"fmt"

	"vwchar/internal/cachetier"
	"vwchar/internal/faults"
	"vwchar/internal/hw"
	"vwchar/internal/load"
	"vwchar/internal/osmodel"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
	"vwchar/internal/tiers"
	"vwchar/internal/timeseries"
	"vwchar/internal/xen"
)

// Env selects the deployment.
type Env string

// Deployments.
const (
	// Virtualized runs both tiers in VMs on one Xen host (paper §4.1).
	Virtualized Env = "virtualized"
	// Physical runs each tier on its own bare-metal server (paper §4.2).
	Physical Env = "physical"
)

// MixKind selects the client request composition.
type MixKind string

// The five compositions the paper tested.
const (
	MixBrowsing MixKind = "browsing"
	MixBidding  MixKind = "bidding"
	Mix30Browse MixKind = "30/70"
	Mix50Browse MixKind = "50/50"
	Mix70Browse MixKind = "70/30"
)

// Model returns the behaviour model for the mix.
func (m MixKind) Model() rubis.Model {
	switch m {
	case MixBrowsing:
		return rubis.BrowsingMix()
	case MixBidding:
		return rubis.BiddingMix()
	case Mix30Browse:
		return rubis.NewCompositeMix(0.3)
	case Mix50Browse:
		return rubis.NewCompositeMix(0.5)
	case Mix70Browse:
		return rubis.NewCompositeMix(0.7)
	default:
		panic(fmt.Sprintf("experiment: unknown mix %q", m))
	}
}

// Config parameterizes one run. The zero value is not runnable; use
// DefaultConfig.
type Config struct {
	Environment Env
	Mix         MixKind
	// Clients is the closed-loop population (paper: 1000).
	Clients int
	// Duration is the profiled window (paper: ~20 min -> 600 samples).
	Duration sim.Time
	Seed     uint64
	Dataset  rubis.DatasetConfig
	// DatasetSeed, when non-zero, pins the dataset-population seed
	// instead of deriving it from Seed. Runs sharing a DatasetSeed (and
	// Dataset scale) populate one immutable golden snapshot and attach
	// copy-on-write views, so replications skip population entirely; see
	// runner.SweepSpec.SharedDatasets. Zero keeps the historical
	// per-run derivation (each run populates its own dataset stream) —
	// still served through the snapshot cache, just with per-run keys.
	DatasetSeed uint64 `json:",omitempty"`
	// KeepFullCatalog records all 182 metrics per target, not just the
	// headline figure series.
	KeepFullCatalog bool
	// XenParams overrides the hypervisor cost model (nil: calibrated
	// defaults). Used by ablation studies, e.g. zeroing the split-driver
	// costs to isolate dom0's I/O backend share.
	XenParams *xen.Params
	// Pairs co-locates this many independent RUBiS instances (web VM +
	// DB VM each) on the single virtualized host, up to the testbed's
	// ten-VM limit. Zero or one means the paper's single-instance setup;
	// values above one drive the consolidation study. Virtualized only.
	Pairs int
	// Load, when non-nil, replaces the paper's closed-loop client
	// population with the open-loop workload generator the spec
	// describes (arrival process + session lifecycle); Clients is then
	// ignored. Nil preserves the paper's fixed-population behaviour
	// byte for byte.
	Load *load.Spec
	// Topology, when non-nil, replaces the paper's fixed web-VM/DB-VM
	// pair with a replicated cluster: N web replicas behind a load
	// balancer, a DB primary with optional read replicas, explicit
	// VM-to-machine placement, and an optional autoscaler. Nil — or a
	// degenerate 1-web/1-DB/1-machine topology — reproduces the paper's
	// single-pair assembly byte for byte. Virtualized only (the physical
	// testbed is two fixed servers); incompatible with Pairs > 1.
	Topology *tiers.Topology
	// Faults, when non-nil, injects the schedule's crash/degraded-mode
	// timeline into the run (expanded deterministically from Seed).
	// Virtualized only; incompatible with Pairs > 1. Nil injects
	// nothing and leaves the serving path byte-identical.
	Faults *faults.Schedule
	// Resilience, when non-nil, wraps dispatch in a guard (timeouts,
	// retries, optional breaker) and starts health checks driving
	// replica ejection and DB primary failover. Nil leaves the serving
	// path untouched — faults without resilience show the unprotected
	// baseline.
	Resilience *faults.ResilienceSpec
	// Cache, when non-nil, deploys a memcache-like cache VM: cacheable
	// reads consult it first and fall through to the DB on a miss.
	// Virtualized only; incompatible with Pairs > 1. Nil leaves the
	// serving path byte-identical.
	Cache *cachetier.CacheSpec
	// Queue, when non-nil, deploys a write-behind queue VM: write
	// interactions publish their query chains to the broker and complete
	// on the ack, with a periodic batched drain replaying them to the DB
	// primary. Virtualized only; incompatible with Pairs > 1. Nil leaves
	// the serving path byte-identical.
	Queue *cachetier.QueueSpec
}

// DefaultConfig returns the paper's experimental setup for env and mix.
func DefaultConfig(env Env, mix MixKind) Config {
	return Config{
		Environment: env,
		Mix:         mix,
		Clients:     1000,
		Duration:    1200 * sim.Second,
		Seed:        42,
		Dataset:     rubis.DefaultDataset(),
	}
}

// Tier names used for collector targets and figure panels.
const (
	TierWeb   = "webapp"
	TierDB    = "mysql"
	TierDom0  = "dom0"
	TierCache = "memcache"
	TierQueue = "wqueue"
)

// PairStat is the per-instance outcome of a consolidated run.
type PairStat struct {
	Completed    uint64
	MeanRespTime float64
	P95RespTime  float64
}

// ScalingStats summarizes the autoscaler's run: how often it acted,
// how far it grew, and how long the first scale-up took from the start
// of the run — the flash-crowd "time to scale" headline.
type ScalingStats struct {
	ScaleUps     int
	ScaleDowns   int
	PeakReplicas int
	// FirstUpAt is the activation instant of the first scale-up (boot
	// delay included); zero when the autoscaler never fired.
	FirstUpAt sim.Time
}

// RequestStats splits issued requests by outcome. The invariant
// Issued = Served + TimedOut + Shed + Failed + Degraded + InFlight
// always holds (InFlight is demand still in the pipe when the run
// ended).
type RequestStats struct {
	Issued   uint64 `json:"issued"`
	Served   uint64 `json:"served"`
	TimedOut uint64 `json:"timed_out"`
	Shed     uint64 `json:"shed"`
	Failed   uint64 `json:"failed"`
	// Degraded counts requests deliberately answered degraded by the
	// overload controller (brownout drops and over-bound fast-fails).
	Degraded uint64 `json:"degraded"`
	InFlight uint64 `json:"in_flight"`
}

// Result is one completed run.
type Result struct {
	Config    Config
	Collector *sysstat.Collector

	// PairStats has one entry per co-located RUBiS instance (length 1
	// for the paper's default setup).
	PairStats []PairStat

	// Driver outcomes.
	Completed     uint64
	Errors        uint64
	WriteFraction float64
	MeanRespTime  float64
	P95RespTime   float64
	WebGrowths    int

	// Virtualized-only accounting.
	Attribution     xen.Dom0Attribution
	GuestPhysCycles float64
	PerfFinal       []xen.PerfCounter
	// Dom0BuffersMB is dom0's final backend-buffer gauge (grant pools
	// and netback/blkback rings), the I/O-attributed share of its RAM.
	Dom0BuffersMB float64

	// Physical-only accounting (cumulative host CPU cycles).
	WebPMCycles, DBPMCycles float64

	// Interactions tallies per type.
	Interactions map[rubis.Interaction]uint64

	// Telemetry is the primary driver's windowed application-metrics
	// series (per-window latency quantiles, throughput, in-flight
	// concurrency, session churn), rotated on the collector's ticker so
	// every series shares the resource series' 2-second time axis. For
	// consolidated runs it covers instance 0, matching the headline
	// response-time scalars.
	Telemetry *telemetry.WindowSeries

	// Sessions is the open-loop session-churn accounting, summed across
	// co-located instances; nil for closed-loop runs.
	Sessions *tiers.SessionStats

	// Tiers lists the collector targets in registration order — the
	// classic {webapp, mysql, dom0} for degenerate runs, per-replica
	// targets plus tier aggregates for cluster topologies.
	Tiers []string

	// ScaleEvents is the web cluster's scale-event log (boot, up, down)
	// in time order; empty without an autoscaler.
	ScaleEvents []tiers.ScaleEvent
	// Scaling summarizes the scale events; nil for runs without a
	// cluster topology.
	Scaling *ScalingStats
	// ReplicaServed counts dispatched requests per web replica slot;
	// nil for degenerate runs.
	ReplicaServed []uint64

	// ServedHist is the primary driver's run-level response-time
	// histogram over every served response; AbandonedHist is the subset
	// whose latency drove its session away. Together they split SLO debt
	// into served-slow and driven-away (characterize.AnalyzeScaling).
	ServedHist, AbandonedHist *telemetry.Hist

	// Requests splits issued requests by outcome, summed across
	// instances; nil unless faults or resilience were configured.
	Requests *RequestStats
	// Guard snapshots the primary instance's guard counters; nil
	// without a Resilience spec.
	Guard *tiers.GuardStats
	// Failovers is the DB promotion log; empty without failovers.
	Failovers []tiers.FailoverEvent
	// FaultTimeline is the expanded fault schedule the run executed;
	// nil without a Faults schedule.
	FaultTimeline []faults.Event
	// Hazard is the load-coupled crash hazard's accounting; nil unless
	// Faults.Hazard was configured (non-nil even when it never fired).
	Hazard *tiers.HazardStats
	// Brownout is the overload controller's accounting; nil unless
	// Resilience.Brownout was configured.
	Brownout *tiers.BrownoutStats
	// Cache snapshots the cache node's accounting; nil without a Cache
	// spec.
	Cache *tiers.CacheStats
	// Queue snapshots the write-behind broker's accounting; nil without
	// a Queue spec.
	Queue *tiers.QueueStats
	// PerInteraction breaks the primary driver's latency down by RUBiS
	// interaction kind, with per-kind cache outcomes when a cache tier
	// was deployed. Always populated, in rubis dense-index order.
	PerInteraction []InteractionLatency
}

// InteractionLatency is one RUBiS interaction kind's run-level latency
// and cache accounting.
type InteractionLatency struct {
	Kind        string  `json:"kind"`
	Count       uint64  `json:"count"`
	MeanMs      float64 `json:"mean_ms"`
	P95Ms       float64 `json:"p95_ms"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
}

// CPU returns the per-2s cycle demand series for tier ("webapp",
// "mysql", "dom0").
func (r *Result) CPU(tier string) *timeseries.Series { return r.Collector.CPU(tier) }

// Mem returns the used-memory series (MB).
func (r *Result) Mem(tier string) *timeseries.Series { return r.Collector.Mem(tier) }

// Disk returns the per-2s disk read+write series (KB).
func (r *Result) Disk(tier string) *timeseries.Series { return r.Collector.Disk(tier) }

// Net returns the per-2s network rx+tx series (KB).
func (r *Result) Net(tier string) *timeseries.Series { return r.Collector.Net(tier) }

// Run executes the configured experiment to completion: validate,
// attach the datasets, assemble the deployment, declare its optional
// layers, then drive each phase across the layer list around the
// kernel run (see the package doc for the order).
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &deployment{cfg: cfg, k: sim.NewKernel(), src: rng.NewSource(cfg.Seed), model: cfg.Mix.Model()}
	defer d.release()
	if err := d.attachDatasets(); err != nil {
		return nil, err
	}
	assemble := d.assembleVirtualized
	if cfg.Environment == Physical {
		assemble = d.assemblePhysical
	}
	if err := assemble(); err != nil {
		return nil, err
	}
	layers := d.layers()

	// Optional series materialize before capacity is reserved. Every
	// driver's telemetry window then rotates on the collector's sampling
	// ticker, so latency windows and resource samples close at the same
	// instants, in driver order; reserving the duration-derived window
	// count up front keeps rotation allocation-free for the whole run.
	for _, l := range layers {
		if l.series != nil {
			l.series()
		}
	}
	windows := int(cfg.Duration / sysstat.SampleInterval)
	for _, drv := range d.drivers {
		drv.Recorder().ReserveWindows(windows)
		d.collector.OnSample(drv.RotateWindow)
	}
	for _, l := range layers {
		if l.onWindow != nil {
			d.collector.OnSample(l.onWindow)
		}
	}
	d.collector.Start()
	for _, drv := range d.drivers {
		drv.Start()
	}
	d.k.Run(cfg.Duration)

	res := d.harvestDrivers()
	d.harvest(res)
	for _, l := range layers {
		if l.harvest != nil {
			l.harvest(res)
		}
	}
	return res, nil
}

// deployment is one run's assembled testbed: the kernel and seed
// source, the collector, one load generator per RUBiS instance
// (instance 0 first) with its guard when a Resilience spec wraps
// dispatch, and the VM instance the optional layers act on.
type deployment struct {
	cfg   Config
	k     *sim.Kernel
	src   *rng.Source
	model rubis.Model

	// apps holds the attached dataset views, one per instance.
	apps      []*rubis.App
	collector *sysstat.Collector
	drivers   []tiers.LoadGen
	guards    []*tiers.Guard
	// webs lists every web server whose heap growth the result counts.
	webs []*tiers.WebAppServer
	// inst is instance 0 on the virtualized testbed; nil on the
	// physical one.
	inst *vmInstance
	topo tiers.Topology
	// harvest records the environment's own accounting: the
	// hypervisor's attribution, or the physical hosts' cycle totals.
	harvest func(*Result)
}

// attachDatasets attaches one dataset per RUBiS instance from the
// process-wide golden snapshot cache: the first run for a (scale,
// seed) pair populates and seals it, and every later run attaches a
// copy-on-write view in microseconds.
func (d *deployment) attachDatasets() error {
	names := []string{"dataset"}
	if d.cfg.Environment == Virtualized {
		names = names[:0]
		for p := 0; p < max(d.cfg.Pairs, 1); p++ {
			names = append(names, fmt.Sprintf("dataset-%d", p))
		}
	}
	for p, name := range names {
		seed := d.src.SeedFor(name)
		if d.cfg.DatasetSeed != 0 {
			// Instance 0 (and the physical env) use the pinned seed
			// directly, so a sweep's replications, and both
			// environments, reuse one golden.
			seed = d.cfg.DatasetSeed
			if p > 0 {
				seed = rng.NewSource(d.cfg.DatasetSeed).SeedFor(name)
			}
		}
		a, err := rubis.SharedApp(d.cfg.Dataset, seed)
		if err != nil {
			return fmt.Errorf("experiment: %s: %w", name, err)
		}
		d.apps = append(d.apps, a)
	}
	return nil
}

// release returns the dataset views to their snapshot's pool; results
// hold aggregated numbers, never engine state.
func (d *deployment) release() {
	for _, a := range d.apps {
		a.Release()
	}
}

// addDriver builds one instance's load generator over web: the paper's
// closed loop when cfg.Load is nil, the open-loop generator otherwise,
// each with its own RNG source (arrival processes are stateful). With a
// Resilience spec the dispatch path is first wrapped in a guard
// (timeouts, retries, breaker); without one the frontend is untouched.
func (d *deployment) addDriver(app *rubis.App, web tiers.Frontend, src *rng.Source) error {
	if d.cfg.Resilience != nil {
		g := tiers.NewGuard(d.k, web, *d.cfg.Resilience, src.Stream("resilience-jitter"))
		d.guards = append(d.guards, g)
		web = g
	}
	costs := rubis.DefaultCostParams()
	if d.cfg.Load == nil {
		d.drivers = append(d.drivers, tiers.NewDriver(d.k, app, d.model, web, costs, d.cfg.Clients, src))
		return nil
	}
	p, err := tiers.OpenParamsFromSpec(d.cfg.Load)
	if err != nil {
		return fmt.Errorf("experiment: building load spec: %w", err)
	}
	d.drivers = append(d.drivers, tiers.NewOpenDriver(d.k, app, d.model, web, costs, p, src))
	return nil
}

// assembleVirtualized builds the Xen testbed: the topology's machines,
// one RUBiS instance per consolidation pair, and the collector over
// instance 0's targets.
func (d *deployment) assembleVirtualized() error {
	cfg := d.cfg
	if cfg.Topology != nil {
		d.topo = *cfg.Topology
	}
	d.topo = d.topo.Normalized()
	xp := xen.DefaultParams()
	if cfg.XenParams != nil {
		xp = *cfg.XenParams
	}
	hvs := make([]*xen.Hypervisor, d.topo.Machines)
	for m := range hvs {
		hvs[m] = xen.New(d.k, hw.NewServer(d.k, hw.ProLiantSpec(fmt.Sprintf("host%d", m))), xp)
	}
	for p, app := range d.apps {
		inst := buildVMInstance(d.k, hvs, d.topo, p, app, cfg.Cache, cfg.Queue)
		if err := d.addDriver(app, inst.cluster, rng.NewSource(cfg.Seed+uint64(p)*7919)); err != nil {
			return err
		}
		d.webs = append(d.webs, inst.cluster.Replicas...)
		if p == 0 {
			// The collector snapshots its targets when built, so it is
			// built before later pairs' guests change dom0's counters.
			d.inst = inst
			d.collector = sysstat.NewCollector(d.k, cfg.KeepFullCatalog, vmTargets(d.k, hvs, d.topo, inst)...)
		}
	}
	hv := hvs[0]
	d.harvest = func(res *Result) {
		res.Attribution = hv.Attribution()
		res.GuestPhysCycles = hv.GuestPhysCycles()
		res.PerfFinal = hv.PerfCounters()
		res.Dom0BuffersMB = hv.Dom0().Mem.Get("backend-buffers") / 1e6
	}
	return nil
}

// assemblePhysical builds the two-server bare-metal testbed.
func (d *deployment) assemblePhysical() error {
	k, app := d.k, d.apps[0]
	webSrv := hw.NewServer(k, hw.ProLiantSpec("web-pm"))
	dbSrv := hw.NewServer(k, hw.ProLiantSpec("db-pm"))
	webOS := osmodel.New("web-pm", webSrv.Mem, 140)
	dbOS := osmodel.New("db-pm", dbSrv.Mem, 135)
	webSrv.Mem.Set("kernel", 90e6)
	dbSrv.Mem.Set("kernel", 90e6)

	webBE := tiers.NewPMBackend(k, webSrv, dbSrv, tiers.DefaultPMParams("web"), d.src.Stream("pm-web-noise"), webOS)
	dbBE := tiers.NewPMBackend(k, dbSrv, webSrv, tiers.DefaultPMParams("db"), d.src.Stream("pm-db-noise"), dbOS)
	db := tiers.NewDBServer(k, dbBE, app, tiers.DefaultDBParams("pm"))
	dbc := tiers.NewDBCluster(db, nil, 0)
	paths := []tiers.PathPair{{To: tiers.PMPath(webBE), From: tiers.PMPath(dbBE)}}
	webPM := tiers.NewWebAppServer(k, webBE, dbc, paths, tiers.DefaultWebParams("pm"))
	d.webs = append(d.webs, webPM)
	if err := d.addDriver(app, tiers.NewWebCluster(k, []*tiers.WebAppServer{webPM}, 1, nil), d.src); err != nil {
		return err
	}
	d.collector = sysstat.NewCollector(k, d.cfg.KeepFullCatalog,
		sysstat.Target{Name: TierWeb, Snap: pmSnapshot(k, webSrv, webOS)},
		sysstat.Target{Name: TierDB, Snap: pmSnapshot(k, dbSrv, dbOS)},
	)
	d.harvest = func(res *Result) {
		res.WebPMCycles = webSrv.CPU.TotalCycles()
		res.DBPMCycles = dbSrv.CPU.TotalCycles()
	}
	return nil
}

// harvestDrivers builds the result from the drivers' outcomes: totals
// summed across instances, latency and telemetry from instance 0.
func (d *deployment) harvestDrivers() *Result {
	res := &Result{Config: d.cfg, Collector: d.collector, Tiers: d.collector.TargetNames()}
	for _, drv := range d.drivers {
		completed, errors := drv.Totals()
		res.Completed += completed
		res.Errors += errors
		res.PairStats = append(res.PairStats, PairStat{
			Completed:    completed,
			MeanRespTime: drv.MeanResponseTime(),
			P95RespTime:  drv.ResponseTimeQuantile(0.95),
		})
		if od, ok := drv.(*tiers.OpenDriver); ok {
			if res.Sessions == nil {
				res.Sessions = &tiers.SessionStats{}
			}
			res.Sessions.Offered += od.Sessions.Offered
			res.Sessions.Started += od.Sessions.Started
			res.Sessions.Finished += od.Sessions.Finished
			res.Sessions.Abandoned += od.Sessions.Abandoned
			res.Sessions.PeakActive += od.Sessions.PeakActive
		}
	}
	for _, w := range d.webs {
		res.WebGrowths += w.Growths()
	}
	primary := d.drivers[0]
	rec := primary.Recorder()
	res.WriteFraction = primary.WriteFraction()
	res.MeanRespTime = primary.MeanResponseTime()
	res.P95RespTime = primary.ResponseTimeQuantile(0.95)
	res.Telemetry = rec.Series()
	res.ServedHist, res.AbandonedHist = rec.RunHist(), rec.AbandonedHist()
	res.Interactions = make(map[rubis.Interaction]uint64)
	counts := primary.InteractionCounts()
	for _, kind := range rubis.AllInteractions() {
		if n := counts[kind]; n > 0 {
			res.Interactions[kind] = n
		}
		h := rec.KindHist(int(kind))
		res.PerInteraction = append(res.PerInteraction, InteractionLatency{
			Kind:   kind.String(),
			Count:  h.Count(),
			MeanMs: h.Mean() * 1e3,
			P95Ms:  h.Quantile(0.95) * 1e3,
		})
	}
	return res
}
