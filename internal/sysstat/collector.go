package sysstat

import (
	"fmt"

	"vwchar/internal/sim"
	"vwchar/internal/timeseries"
)

// SampleInterval is the paper's monitoring period.
const SampleInterval = 2 * sim.Second

// Target is one monitored OS instance.
type Target struct {
	// Name labels the instance ("webapp.vm", "mysql.vm", "dom0", ...).
	Name string
	// Snap captures the instance's current state.
	Snap func() Snapshot
}

// Collector samples all targets every 2 seconds, producing both the
// headline per-2s demand series used by the paper's figures and the full
// 182-metric catalog per target.
type Collector struct {
	k       *sim.Kernel
	targets []Target
	catalog []Metric

	prev map[string]Snapshot
	// headline series per target
	cpu, mem, disk, net map[string]*timeseries.Series
	// full catalog series per target, keyed "target/metric"
	full map[string]*timeseries.Series

	ticker *sim.Ticker
	// onSample hooks fire after each collection round, in registration
	// order — the telemetry recorders rotate their windows here, which
	// is what aligns the latency series with the resource series.
	onSample []func(now sim.Time)
	// Samples counts collection rounds.
	Samples int
	// KeepFullCatalog toggles recording all 182 metrics per target
	// (headline series are always kept).
	KeepFullCatalog bool
}

// NewCollector builds a collector over the given targets.
func NewCollector(k *sim.Kernel, keepFull bool, targets ...Target) *Collector {
	c := &Collector{
		k:               k,
		targets:         targets,
		catalog:         Catalog(),
		prev:            make(map[string]Snapshot),
		cpu:             make(map[string]*timeseries.Series),
		mem:             make(map[string]*timeseries.Series),
		disk:            make(map[string]*timeseries.Series),
		net:             make(map[string]*timeseries.Series),
		full:            make(map[string]*timeseries.Series),
		KeepFullCatalog: keepFull,
	}
	for _, t := range targets {
		c.cpu[t.Name] = timeseries.New(t.Name+".cpu.cycles", "cycles/2s")
		c.mem[t.Name] = timeseries.New(t.Name+".mem.used", "MB")
		c.disk[t.Name] = timeseries.New(t.Name+".disk.rw", "KB/2s")
		c.net[t.Name] = timeseries.New(t.Name+".net.rxtx", "KB/2s")
		if keepFull {
			for _, m := range c.catalog {
				key := t.Name + "/" + m.Name
				c.full[key] = timeseries.New(key, m.Unit)
			}
		}
		c.prev[t.Name] = t.Snap()
	}
	return c
}

// OnSample registers a hook invoked after every collection round with
// the sample time. Hooks run on the collector's ticker in registration
// order, so anything they emit shares the resource series' time axis
// sample for sample. Register before Start.
func (c *Collector) OnSample(fn func(now sim.Time)) {
	c.onSample = append(c.onSample, fn)
}

// Start begins sampling (first sample after one interval).
func (c *Collector) Start() {
	c.ticker = c.k.Every(SampleInterval, SampleInterval, c.sample)
}

// Stop halts sampling.
func (c *Collector) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

func (c *Collector) sample(now sim.Time) {
	dt := SampleInterval.Sec()
	for _, t := range c.targets {
		cur := t.Snap()
		prev := c.prev[t.Name]
		c.cpu[t.Name].Append(cur.CPUCycles - prev.CPUCycles)
		c.mem[t.Name].Append(cur.MemUsed / 1e6)
		c.disk[t.Name].Append(((cur.DiskReadBytes + cur.DiskWriteBytes) - (prev.DiskReadBytes + prev.DiskWriteBytes)) / 1024)
		c.net[t.Name].Append(((cur.NetRxBytes + cur.NetTxBytes) - (prev.NetRxBytes + prev.NetTxBytes)) / 1024)
		if c.KeepFullCatalog {
			for _, m := range c.catalog {
				c.full[t.Name+"/"+m.Name].Append(m.Eval(&prev, &cur, dt))
			}
		}
		c.prev[t.Name] = cur
	}
	c.Samples++
	for _, fn := range c.onSample {
		fn(now)
	}
}

// CPU returns the per-2s CPU cycle demand series for target name.
func (c *Collector) CPU(name string) *timeseries.Series { return c.cpu[name] }

// Mem returns the used-memory series (MB) for target name.
func (c *Collector) Mem(name string) *timeseries.Series { return c.mem[name] }

// Disk returns the per-2s disk read+write series (KB) for target name.
func (c *Collector) Disk(name string) *timeseries.Series { return c.disk[name] }

// Net returns the per-2s network rx+tx series (KB) for target name.
func (c *Collector) Net(name string) *timeseries.Series { return c.net[name] }

// Metric returns the full-catalog series target/metric, or an error when
// the collector was not recording the full catalog.
func (c *Collector) Metric(target, metric string) (*timeseries.Series, error) {
	if !c.KeepFullCatalog {
		return nil, fmt.Errorf("sysstat: full catalog not recorded")
	}
	s, ok := c.full[target+"/"+metric]
	if !ok {
		return nil, fmt.Errorf("sysstat: no series %q for target %q", metric, target)
	}
	return s, nil
}

// MetricNames lists the catalog metric names in catalog order.
func (c *Collector) MetricNames() []string {
	out := make([]string, len(c.catalog))
	for i, m := range c.catalog {
		out[i] = m.Name
	}
	return out
}

// TargetNames lists monitored targets in registration order.
func (c *Collector) TargetNames() []string {
	out := make([]string, len(c.targets))
	for i, t := range c.targets {
		out[i] = t.Name
	}
	return out
}
