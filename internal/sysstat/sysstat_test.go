package sysstat

import (
	"bytes"
	"strings"
	"testing"

	"vwchar/internal/sim"
	"vwchar/internal/xen"
)

func TestCatalogHasExactly182Metrics(t *testing.T) {
	cat := Catalog()
	if len(cat) != CatalogSize {
		t.Fatalf("catalog has %d metrics, the paper profiles %d per instance", len(cat), CatalogSize)
	}
	names := make(map[string]bool)
	for _, m := range cat {
		if m.Name == "" || m.Group == "" || m.Description == "" {
			t.Fatalf("incomplete metric: %+v", m)
		}
		if names[m.Name] {
			t.Fatalf("duplicate metric %q", m.Name)
		}
		names[m.Name] = true
		if m.Eval == nil {
			t.Fatalf("metric %q has no evaluator", m.Name)
		}
	}
}

func TestTotalProfiledMetricsIs518(t *testing.T) {
	if got := TotalProfiledMetrics(); got != 518 {
		t.Fatalf("total = %d, paper profiles 518", got)
	}
}

func sampleSnapshots() (Snapshot, Snapshot) {
	prev := Snapshot{
		At: 0, Cores: 2, FreqHz: 2.8e9,
		MemTotal: 2 << 30, MemUsed: 500e6, MemBuffers: 20e6, MemCached: 100e6,
	}
	cur := prev
	cur.At = 2 * sim.Second
	cur.CPUCycles = 1e9
	cur.CPUBusy = 800 * sim.Millisecond
	cur.StealTime = 40 * sim.Millisecond
	cur.DiskReadBytes = 1 << 20
	cur.DiskWriteBytes = 2 << 20
	cur.DiskReadOps = 10
	cur.DiskWriteOps = 20
	cur.DiskBusy = 100 * sim.Millisecond
	cur.NetRxBytes = 3 << 20
	cur.NetTxBytes = 4 << 20
	cur.NetRxPkts = 3000
	cur.NetTxPkts = 4000
	cur.CtxSwitches = 500
	cur.Interrupts = 400
	cur.Forks = 6
	cur.Faults = 100
	cur.MajFaults = 2
	cur.PgInBytes = 1 << 20
	cur.PgOutBytes = 2 << 20
	cur.Procs = 120
	cur.RunQueue = 3
	cur.Load1 = 1.5
	return prev, cur
}

func evalByName(t *testing.T, name string) float64 {
	t.Helper()
	prev, cur := sampleSnapshots()
	for _, m := range Catalog() {
		if m.Name == name {
			return m.Eval(&prev, &cur, 2)
		}
	}
	t.Fatalf("no metric %q", name)
	return 0
}

func TestMetricValues(t *testing.T) {
	if got := evalByName(t, "cswch/s"); got != 250 {
		t.Fatalf("cswch/s = %v", got)
	}
	if got := evalByName(t, "proc/s"); got != 3 {
		t.Fatalf("proc/s = %v", got)
	}
	// busy 0.8 s of 4 core-seconds = 20%; 78% of that is user time.
	if got := evalByName(t, "%user [all]"); got < 15 || got > 16 {
		t.Fatalf("%%user = %v", got)
	}
	if got := evalByName(t, "%steal [all]"); got <= 0 {
		t.Fatalf("%%steal = %v", got)
	}
	idle := evalByName(t, "%idle [all]")
	if idle <= 0 || idle >= 100 {
		t.Fatalf("%%idle = %v", idle)
	}
	if got := evalByName(t, "kbmemused"); got != 500e6/1024 {
		t.Fatalf("kbmemused = %v", got)
	}
	if got := evalByName(t, "rxkB/s [eth0]"); got != (3<<20)/1024/2 {
		t.Fatalf("rxkB/s = %v", got)
	}
	if got := evalByName(t, "rxkB/s [lo]"); got != 0 {
		t.Fatalf("rxkB/s [lo] = %v (loopback should be idle)", got)
	}
	if got := evalByName(t, "bread/s"); got != (1<<20)/512/2 {
		t.Fatalf("bread/s = %v", got)
	}
	if got := evalByName(t, "tps"); got != 15 {
		t.Fatalf("tps = %v", got)
	}
	if got := evalByName(t, "runq-sz"); got != 3 {
		t.Fatalf("runq-sz = %v", got)
	}
	if got := evalByName(t, "MHz"); got != 2800 {
		t.Fatalf("MHz = %v", got)
	}
	if got := evalByName(t, "pswpin/s"); got != 0 {
		t.Fatalf("pswpin/s = %v (testbed never swapped)", got)
	}
}

func TestCollectorProducesHeadlineSeries(t *testing.T) {
	k := sim.NewKernel()
	var cycles float64
	target := Target{Name: "vm", Snap: func() Snapshot {
		return Snapshot{
			At: k.Now(), Cores: 2, FreqHz: 2.8e9,
			CPUCycles: cycles, MemTotal: 2 << 30, MemUsed: 400e6,
		}
	}}
	c := NewCollector(k, false, target)
	c.Start()
	k.Every(sim.Second, sim.Second, func(sim.Time) { cycles += 5e8 })
	k.Run(20 * sim.Second)
	cpu := c.CPU("vm")
	if cpu.Len() != 10 {
		t.Fatalf("cpu samples = %d, want 10", cpu.Len())
	}
	// ~1e9 cycles per 2 s sample.
	for i := 1; i < cpu.Len(); i++ {
		if cpu.At(i) != 1e9 {
			t.Fatalf("sample %d = %v", i, cpu.At(i))
		}
	}
	if mem := c.Mem("vm"); mem.At(0) != 400 {
		t.Fatalf("mem MB = %v", mem.At(0))
	}
	if c.Samples != 10 {
		t.Fatalf("Samples = %d", c.Samples)
	}
	if _, err := c.Metric("vm", "%user [all]"); err == nil {
		t.Fatal("full catalog was not recorded; Metric should error")
	}
}

// TestCollectorOnSampleHook pins the telemetry seam: hooks fire once
// per collection round, after the resource snapshots, at exactly the
// sample times — so anything a hook emits is aligned with the resource
// series window for window.
func TestCollectorOnSampleHook(t *testing.T) {
	k := sim.NewKernel()
	target := Target{Name: "vm", Snap: func() Snapshot {
		return Snapshot{At: k.Now(), Cores: 2, FreqHz: 2.8e9, MemTotal: 1 << 30, MemUsed: 1 << 29}
	}}
	c := NewCollector(k, false, target)
	var times []sim.Time
	var sampleCountAtHook []int
	c.OnSample(func(now sim.Time) {
		times = append(times, now)
		sampleCountAtHook = append(sampleCountAtHook, c.Samples)
	})
	order := 0
	c.OnSample(func(now sim.Time) { order++ })
	c.Start()
	k.Run(10 * sim.Second)
	if len(times) != c.Samples || c.Samples != 5 {
		t.Fatalf("hook fired %d times over %d samples", len(times), c.Samples)
	}
	for i, at := range times {
		if want := sim.Time(i+1) * SampleInterval; at != want {
			t.Fatalf("hook %d fired at %v, want %v", i, at, want)
		}
		// The round's resource samples land before the hook runs.
		if sampleCountAtHook[i] != i+1 {
			t.Fatalf("hook %d saw %d samples recorded, want %d", i, sampleCountAtHook[i], i+1)
		}
	}
	if order != 5 {
		t.Fatalf("second hook fired %d times", order)
	}
	if got := c.CPU("vm").Len(); got != len(times) {
		t.Fatalf("resource series has %d samples vs %d hook firings", got, len(times))
	}
}

func TestCollectorFullCatalog(t *testing.T) {
	k := sim.NewKernel()
	target := Target{Name: "vm", Snap: func() Snapshot {
		return Snapshot{At: k.Now(), Cores: 2, FreqHz: 2.8e9, MemTotal: 1 << 30, MemUsed: 1 << 29}
	}}
	c := NewCollector(k, true, target)
	c.Start()
	k.Run(10 * sim.Second)
	s, err := c.Metric("vm", "%memused")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 || s.At(0) != 50 {
		t.Fatalf("%%memused series: len=%d v0=%v", s.Len(), s.Values)
	}
	if _, err := c.Metric("vm", "no-such-metric"); err == nil {
		t.Fatal("unknown metric should error")
	}
	if _, err := c.Metric("no-such-target", "%memused"); err == nil {
		t.Fatal("unknown target should error")
	}
	if c.CPU("no-such-target") != nil || c.Mem("no-such-target") != nil ||
		c.Disk("no-such-target") != nil || c.Net("no-such-target") != nil {
		t.Fatal("headline series of an unknown target should be nil")
	}
	if len(c.MetricNames()) != CatalogSize {
		t.Fatal("MetricNames should list the whole catalog")
	}
	if got := c.TargetNames(); len(got) != 1 || got[0] != "vm" {
		t.Fatalf("TargetNames = %v", got)
	}
}

// benchTargets returns three targets whose counters advance on every
// snapshot, so each round's catalog evaluators see a moving window.
func benchTargets() []Target {
	var targets []Target
	for i, name := range []string{"web", "db", "dom0"} {
		var s Snapshot
		s.Cores, s.FreqHz, s.MemTotal = 2, 2.8e9, 2<<30
		step := float64(i + 1)
		targets = append(targets, Target{Name: name, Snap: func() Snapshot {
			s.At += SampleInterval
			s.CPUCycles += 1e9 * step
			s.CPUBusy += 700 * sim.Millisecond
			s.StealTime += 20 * sim.Millisecond
			s.MemUsed = 400e6 * step
			s.DiskReadBytes += 1 << 20
			s.DiskWriteBytes += 2 << 20
			s.DiskReadOps += 10
			s.DiskWriteOps += 20
			s.DiskBusy += 90 * sim.Millisecond
			s.NetRxBytes += 3 << 20
			s.NetTxBytes += 4 << 20
			s.NetRxPkts += 3000
			s.NetTxPkts += 4000
			s.CtxSwitches += 500
			s.Interrupts += 400
			s.Faults += 100
			return s
		}})
	}
	return targets
}

// TestNewCollectorAllocs: building a collector reads the shared catalog
// rather than building one, so three targets without the full catalog
// cost a handful of allocations (the series names and the state).
func TestNewCollectorAllocs(t *testing.T) {
	k := sim.NewKernel()
	targets := benchTargets()
	var c *Collector
	if n := testing.AllocsPerRun(100, func() { c = NewCollector(k, false, targets...) }); n > 40 {
		t.Fatalf("NewCollector: %v allocs over 3 targets, want at most 40", n)
	}
	if got := c.TargetNames(); len(got) != 3 {
		t.Fatalf("TargetNames = %v", got)
	}
}

// BenchmarkCollectorSample times one collection round over three
// targets with the full catalog on: 3 x (4 headline + 182 catalog)
// samples appended per op. Every seriesWindow rounds the series are
// truncated in place, so memory stays bounded and each op measures the
// round itself rather than the growth of its series.
func BenchmarkCollectorSample(b *testing.B) {
	const seriesWindow = 1024
	c := NewCollector(sim.NewKernel(), true, benchTargets()...)
	truncate := func() {
		for i := range c.targets {
			ts := &c.targets[i]
			for h := range ts.head {
				ts.head[h].Values = ts.head[h].Values[:0]
			}
			for j := range ts.full {
				ts.full[j].Values = ts.full[j].Values[:0]
			}
		}
	}
	for i := 0; i < seriesWindow; i++ {
		c.sample(sim.Time(i) * SampleInterval)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%seriesWindow == 0 {
			truncate()
		}
		c.sample(sim.Time(i) * SampleInterval)
	}
}

func TestCollectorStop(t *testing.T) {
	k := sim.NewKernel()
	c := NewCollector(k, false, Target{Name: "x", Snap: func() Snapshot { return Snapshot{} }})
	c.Start()
	k.Run(6 * sim.Second)
	c.Stop()
	k.Run(20 * sim.Second)
	if c.Samples != 3 {
		t.Fatalf("Samples after Stop = %d", c.Samples)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) == 0 {
		t.Fatal("empty Table 1")
	}
	sources := map[string]int{}
	for _, r := range rows {
		if r.Name == "" || r.Description == "" {
			t.Fatalf("incomplete row: %+v", r)
		}
		sources[r.Source]++
	}
	for _, src := range []string{"sysstat (hypervisor)", "sysstat (VM)", "perf (hypervisor)"} {
		if sources[src] == 0 {
			t.Fatalf("Table 1 missing source %q", src)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "518") {
		t.Fatal("Table 1 header should state the 518-metric inventory")
	}
	if !strings.Contains(out, "cswch/s") || !strings.Contains(out, "xen-hypercalls") {
		t.Fatal("Table 1 missing representative metrics")
	}
}

// TestPerfCatalogAccessibleForTable1: every perf counter Table 1 shows
// is in the hypervisor's catalog, read without a live hypervisor.
func TestPerfCatalogAccessibleForTable1(t *testing.T) {
	cat := xen.CatalogOnly()
	if len(cat) != xen.PerfCounterCount {
		t.Fatal("perf catalog size mismatch")
	}
	names := make(map[string]bool, len(cat))
	for _, c := range cat {
		names[c.Name] = true
	}
	for _, name := range table1PerfPicks {
		if !names[name] {
			t.Fatalf("Table 1 perf counter %q is not in the catalog", name)
		}
	}
}
