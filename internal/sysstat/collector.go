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

// The headline series every target records, indexing targetState.head.
const (
	headCPU = iota
	headMem
	headDisk
	headNet
	numHeadlines
)

// headlines names each headline series (after the target's name) and
// gives its unit.
var headlines = [numHeadlines]struct{ suffix, unit string }{
	headCPU:  {".cpu.cycles", "cycles/2s"},
	headMem:  {".mem.used", "MB"},
	headDisk: {".disk.rw", "KB/2s"},
	headNet:  {".net.rxtx", "KB/2s"},
}

// targetState is one target's sampling state: the last two snapshots
// and every series recorded for it.
type targetState struct {
	Target
	prev, cur Snapshot
	head      [numHeadlines]timeseries.Series
	// full holds one series per catalog metric, indexed like the
	// catalog; it is nil unless the collector records the full catalog.
	full []timeseries.Series
}

// Collector samples all targets every 2 seconds, producing both the
// headline per-2s demand series used by the paper's figures and, when
// built to, the full 182-metric catalog per target.
type Collector struct {
	k        *sim.Kernel
	targets  []targetState
	keepFull bool

	ticker *sim.Ticker
	// onSample hooks fire after each collection round, in registration
	// order — the telemetry recorders rotate their windows here, which
	// is what aligns the latency series with the resource series.
	onSample []func(now sim.Time)
	// Samples counts collection rounds.
	Samples int
}

// NewCollector builds a collector over the given targets, taking each
// target's first snapshot in order. keepFull records all 182 metrics per
// target; the headline series are always kept.
func NewCollector(k *sim.Kernel, keepFull bool, targets ...Target) *Collector {
	c := &Collector{k: k, targets: make([]targetState, len(targets)), keepFull: keepFull}
	for i, t := range targets {
		ts := &c.targets[i]
		ts.Target = t
		for h, hl := range headlines {
			ts.head[h] = *timeseries.New(t.Name+hl.suffix, hl.unit)
		}
		if keepFull {
			ts.full = make([]timeseries.Series, len(catalog))
			for j, m := range catalog {
				ts.full[j] = *timeseries.New(t.Name+"/"+m.Name, m.Unit)
			}
		}
		ts.prev = t.Snap()
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
	for i := range c.targets {
		ts := &c.targets[i]
		ts.cur = ts.Snap()
		prev, cur := &ts.prev, &ts.cur
		ts.head[headCPU].Append(cur.CPUCycles - prev.CPUCycles)
		ts.head[headMem].Append(cur.MemUsed / 1e6)
		ts.head[headDisk].Append(((cur.DiskReadBytes + cur.DiskWriteBytes) - (prev.DiskReadBytes + prev.DiskWriteBytes)) / 1024)
		ts.head[headNet].Append(((cur.NetRxBytes + cur.NetTxBytes) - (prev.NetRxBytes + prev.NetTxBytes)) / 1024)
		for j := range ts.full {
			ts.full[j].Append(catalog[j].Eval(prev, cur, dt))
		}
		ts.prev = ts.cur
	}
	c.Samples++
	for _, fn := range c.onSample {
		fn(now)
	}
}

// target returns the state of the target called name, or nil.
func (c *Collector) target(name string) *targetState {
	for i := range c.targets {
		if c.targets[i].Name == name {
			return &c.targets[i]
		}
	}
	return nil
}

// headline returns headline series h of target name, or nil for an
// unknown target.
func (c *Collector) headline(name string, h int) *timeseries.Series {
	if ts := c.target(name); ts != nil {
		return &ts.head[h]
	}
	return nil
}

// CPU returns the per-2s CPU cycle demand series for target name.
func (c *Collector) CPU(name string) *timeseries.Series { return c.headline(name, headCPU) }

// Mem returns the used-memory series (MB) for target name.
func (c *Collector) Mem(name string) *timeseries.Series { return c.headline(name, headMem) }

// Disk returns the per-2s disk read+write series (KB) for target name.
func (c *Collector) Disk(name string) *timeseries.Series { return c.headline(name, headDisk) }

// Net returns the per-2s network rx+tx series (KB) for target name.
func (c *Collector) Net(name string) *timeseries.Series { return c.headline(name, headNet) }

// Metric returns the full-catalog series target/metric, or an error when
// the collector was not recording the full catalog.
func (c *Collector) Metric(target, metric string) (*timeseries.Series, error) {
	if !c.keepFull {
		return nil, fmt.Errorf("sysstat: full catalog not recorded")
	}
	ts := c.target(target)
	j, ok := catalogIndex[metric]
	if ts == nil || !ok {
		return nil, fmt.Errorf("sysstat: no series %q for target %q", metric, target)
	}
	return &ts.full[j], nil
}

// MetricNames lists the catalog metric names in catalog order.
func (c *Collector) MetricNames() []string {
	out := make([]string, len(catalog))
	for i, m := range catalog {
		out[i] = m.Name
	}
	return out
}

// TargetNames lists monitored targets in registration order.
func (c *Collector) TargetNames() []string {
	out := make([]string, len(c.targets))
	for i := range c.targets {
		out[i] = c.targets[i].Name
	}
	return out
}
