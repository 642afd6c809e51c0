package experiment

import (
	"vwchar/internal/faults"
	"vwchar/internal/sim"
	"vwchar/internal/tiers"
)

// layer is one optional part of a run. Its constructor does the
// layer's construction work and returns the zero layer when the
// configuration does not ask for it. Each func is optional: series
// declares the layer's telemetry series with Recorder.AddSeries, as
// samplers over state the layer already keeps, before the drivers
// reserve window capacity; the samplers run inside each driver's
// RotateWindow. onWindow runs on the collector's ticker after every
// driver's RotateWindow, and harvest copies the layer's accounting
// into the result after the kernel stops.
type layer struct {
	series   func()
	onWindow func(now sim.Time)
	harvest  func(*Result)
}

// layers constructs the optional layers in their one declared order,
// which is part of the determinism contract. Constructors run in list
// order, so the fault injector arms its timeline before the health
// monitor starts probing and their first kernel events keep their
// sequence order. Window hooks run in list order too: the hazard's
// crashes, then the brownout controller's re-levelling (both in the
// degradation layer), then the autoscaler's decision. Series and
// harvest order do not matter: each series samples its own state and
// each harvest fills its own Result fields.
func (d *deployment) layers() []layer {
	return []layer{
		d.requestLayer(),
		d.faultLayer(),
		d.monitorLayer(),
		d.degradationLayer(),
		d.autoscalerLayer(),
		d.clusterLayer(),
		d.cacheLayer(),
		d.queueLayer(),
	}
}

// requestLayer splits issued requests by outcome, per window and over
// the run, whenever faults or resilience are configured (physical runs
// included), and reports the primary instance's guard counters. The
// guards themselves are built with their drivers, whose frontend they
// wrap.
func (d *deployment) requestLayer() layer {
	if d.cfg.Faults == nil && d.cfg.Resilience == nil {
		return layer{}
	}
	return layer{
		series: func() {
			for i, drv := range d.drivers {
				rec, totals := drv.Recorder(), drv.RequestTotals
				rec.AddSeries("timeouts", "requests/window", perWindow(func() uint64 { return totals().TimedOut }))
				rec.AddSeries("sheds", "requests/window", perWindow(func() uint64 { return totals().Shed }))
				rec.AddSeries("failures", "requests/window", perWindow(func() uint64 { return totals().Failed }))
				retries := zero
				if i < len(d.guards) {
					retries = perWindow(d.guards[i].RetryCount)
				}
				rec.AddSeries("retries", "retries/window", retries)
				// An idle window is fully available.
				rec.AddSeries("availability", "fraction", share(
					func() uint64 { return totals().Served },
					func() uint64 { t := totals(); return t.TimedOut + t.Shed + t.Failed },
					1))
			}
		},
		harvest: func(res *Result) {
			rs := &RequestStats{}
			for _, drv := range d.drivers {
				t := drv.RequestTotals()
				rs.Issued += t.Issued
				rs.Served += t.Served
				rs.TimedOut += t.TimedOut
				rs.Shed += t.Shed
				rs.Failed += t.Failed
				rs.Degraded += t.Degraded
			}
			rs.InFlight = rs.Issued - rs.Served - rs.TimedOut - rs.Shed - rs.Failed - rs.Degraded
			res.Requests = rs
			if len(d.guards) > 0 {
				stats := d.guards[0].Stats
				res.Guard = &stats
			}
		},
	}
}

// faultLayer expands the fault timeline deterministically from the run
// seed, so injection draws no randomness at run time, and arms the
// injector.
func (d *deployment) faultLayer() layer {
	if d.inst == nil || d.cfg.Faults == nil {
		return layer{}
	}
	tg := faults.Targets{Webs: d.topo.MaxWebReplicas, DBs: 1 + d.topo.DBReadReplicas, Machines: d.topo.Machines}
	if d.inst.cacheSrv != nil {
		tg.Caches = 1
	}
	if d.inst.queueSrv != nil {
		tg.Queues = 1
	}
	timeline := d.cfg.Faults.Expand(d.cfg.Duration, tg, d.src)
	tiers.NewInjector(d.k, d.inst.cluster, d.inst.dbc, d.inst.cacheSrv, d.inst.queueSrv, d.topo, timeline).Start()
	return layer{harvest: func(res *Result) { res.FaultTimeline = timeline }}
}

// monitorLayer starts the health checks that drive replica ejection and
// readmission and DB primary failover.
func (d *deployment) monitorLayer() layer {
	if d.inst == nil || d.cfg.Resilience == nil {
		return layer{}
	}
	monitor := tiers.NewHealthMonitor(d.k, d.inst.cluster, d.inst.dbc, d.inst.queueSrv, *d.cfg.Resilience)
	monitor.Start()
	return layer{harvest: func(res *Result) { res.Failovers = monitor.Failovers }}
}

// degradationLayer is the endogenous coupling: the load-reading crash
// hazard and the brownout controller. Both evaluate at window
// boundaries, so their in-run decisions are as deterministic as the
// pre-expanded timeline, and they share one set of degradation series.
func (d *deployment) degradationLayer() layer {
	var hazard *tiers.Hazard
	var overload *tiers.Overload
	// A gauge whose half of the layer is not built samples zero. The
	// hazard rate reflects the window that closed at the previous
	// boundary: gauges sample inside RotateWindow, before the hazard's
	// own window hook.
	rate, level := zero, zero
	if d.inst != nil && d.cfg.Faults != nil && d.cfg.Faults.Hazard != nil {
		hazard = tiers.NewHazard(d.k, d.inst.cluster, *d.cfg.Faults.Hazard, d.src.Stream("fault-hazard"))
		rate = hazard.WindowRate
	}
	if d.inst != nil && d.cfg.Resilience != nil && d.cfg.Resilience.Brownout != nil {
		overload = tiers.NewOverload(d.inst.cluster, *d.cfg.Resilience.Brownout)
		level = func() float64 { return float64(overload.Level()) }
		d.inst.cluster.SetOverload(overload)
		for _, g := range d.guards {
			g.SetOverload(overload)
		}
	}
	if hazard == nil && overload == nil {
		return layer{}
	}
	return layer{
		series: func() {
			for _, drv := range d.drivers {
				rec, totals := drv.Recorder(), drv.RequestTotals
				// Degraded answers are deliberate fast responses, so they
				// count in their own series, not against availability.
				rec.AddSeries("degraded", "requests/window", perWindow(func() uint64 { return totals().Degraded }))
				rec.AddSeries("brownout_level", "level", level)
				rec.AddSeries("hazard_rate", "crashes/window", rate)
			}
		},
		onWindow: func(now sim.Time) {
			if hazard != nil {
				hazard.OnSample(now)
			}
			if overload != nil {
				overload.OnSample(now)
			}
		},
		harvest: func(res *Result) {
			if hazard != nil {
				stats := hazard.Stats
				res.Hazard = &stats
			}
			if overload != nil {
				stats := overload.Stats
				res.Brownout = &stats
			}
		},
	}
}

// autoscalerLayer scales the web cluster on the window that just
// closed.
func (d *deployment) autoscalerLayer() layer {
	if d.inst == nil || d.topo.Autoscaler == nil {
		return layer{}
	}
	spec := *d.topo.Autoscaler
	// Emergency backfill after an ejection pays the same provisioning
	// delay as a scale-up.
	d.inst.cluster.SetBackfillBoot(sim.Seconds(spec.BootSeconds))
	scaler := tiers.NewAutoscaler(d.inst.cluster, d.drivers[0].Recorder().Series(), spec)
	return layer{onWindow: scaler.OnSample}
}

// clusterLayer records the replica gauge and the scale-event summary of
// a non-degenerate topology.
func (d *deployment) clusterLayer() layer {
	if d.inst == nil || d.topo.IsDegenerate() {
		return layer{}
	}
	c := d.inst.cluster
	return layer{
		series: func() {
			d.drivers[0].Recorder().AddSeries("replicas", "replicas", func() float64 { return float64(c.ActiveReplicas()) })
		},
		harvest: func(res *Result) {
			res.ScaleEvents = c.Events
			st := &ScalingStats{PeakReplicas: c.PeakActive()}
			for _, e := range c.Events {
				switch e.Kind {
				case "up":
					st.ScaleUps++
					if st.FirstUpAt == 0 {
						st.FirstUpAt = e.At
					}
				case "down":
					st.ScaleDowns++
				}
			}
			res.Scaling = st
			for _, w := range c.Replicas {
				res.ReplicaServed = append(res.ReplicaServed, w.Dispatched)
			}
		},
	}
}

// cacheLayer records the cache node's hit-ratio series and its run and
// per-interaction accounting.
func (d *deployment) cacheLayer() layer {
	if d.inst == nil || d.inst.cacheSrv == nil {
		return layer{}
	}
	cs := d.inst.cacheSrv
	return layer{
		// The series difference the node's cumulative counters per
		// window; store stats survive cold restarts, so the differences
		// stay non-negative.
		series: func() {
			rec := d.drivers[0].Recorder()
			rec.AddSeries("cache_hit_ratio", "fraction", share(
				func() uint64 { return cs.Snapshot().Hits },
				func() uint64 { return cs.Snapshot().Misses },
				0))
			rec.AddSeries("cache_stampedes", "fetches/window", perWindow(func() uint64 { return cs.Snapshot().Stampedes }))
		},
		harvest: func(res *Result) {
			stats := cs.Snapshot()
			res.Cache = &stats
			for idx := range res.PerInteraction {
				il := &res.PerInteraction[idx]
				il.CacheHits, il.CacheMisses = cs.KindCounts(uint8(idx))
			}
		},
	}
}

// queueLayer records the write-behind broker's depth and lag gauges and
// its run accounting.
func (d *deployment) queueLayer() layer {
	if d.inst == nil || d.inst.queueSrv == nil {
		return layer{}
	}
	qs := d.inst.queueSrv
	return layer{
		series: func() {
			rec := d.drivers[0].Recorder()
			rec.AddSeries("queue_depth", "writes", func() float64 { return float64(qs.Depth()) })
			rec.AddSeries("queue_lag_ms", "ms", func() float64 { return qs.LagMs(d.k.Now()) })
		},
		harvest: func(res *Result) {
			stats := qs.Snapshot()
			res.Queue = &stats
		},
	}
}

// zero samples a series that has nothing to report as 0.
func zero() float64 { return 0 }

// delta returns how much the cumulative counter cum has grown since
// the previous call (since zero on the first), so a series samples a
// per-window count from a counter that only ever grows.
func delta(cum func() uint64) func() uint64 {
	var last uint64
	return func() uint64 {
		c := cum()
		d := c - last
		last = c
		return d
	}
}

// perWindow samples delta(cum) as a series value.
func perWindow(cum func() uint64) func() float64 {
	d := delta(cum)
	return func() float64 { return float64(d()) }
}

// share samples the fraction part/(part+rest) of what two cumulative
// counters gained in the window, or idle when neither moved.
func share(part, rest func() uint64, idle float64) func() float64 {
	dp, dr := delta(part), delta(rest)
	return func() float64 {
		p, r := dp(), dr()
		if p+r == 0 {
			return idle
		}
		return float64(p) / (float64(p) + float64(r))
	}
}
