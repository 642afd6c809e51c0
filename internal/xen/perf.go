package xen

import "strconv"

// perfState accumulates hypervisor-level scheduling activity that feeds
// the synthesized hardware counters.
type perfState struct {
	ContextSwitches uint64
	SchedRuns       uint64
}

// PerfCounter is one hypervisor-level hardware counter sample.
type PerfCounter struct {
	Name        string
	Description string
	Value       float64
}

// perfInputs is what one harvest of the counters reads: host-wide totals
// summed once over all domains, plus the hypervisor for the counters
// that read a clock, dom0's interrupts or one guest's runstate.
type perfInputs struct {
	hv                                    *Hypervisor
	totalPhys, instr, hypercalls, stealMs float64
	faults, majFaults, ios                uint64
}

// perfCounterDef declares one counter: its identity and how its value
// derives from a harvest's inputs.
type perfCounterDef struct {
	name, desc string
	value      func(in perfInputs) float64
}

// micro-architectural derivation ratios for the Xeon-class testbed CPU.
const (
	ipc             = 1.05
	branchFraction  = 0.19
	branchMissRate  = 0.031
	l1LoadPerInstr  = 0.34
	l1MissRate      = 0.028
	llcRefPerInstr  = 0.011
	llcMissRate     = 0.21
	tlbLoadFraction = 0.31
	tlbMissRate     = 0.0042
)

// seconds converts the host's total physical cycles to seconds.
func (in perfInputs) seconds() float64 { return in.totalPhys / in.hv.host.Spec.FreqHz }

// never is the value of an event that does not occur on the modeled
// testbed.
func never(perfInputs) float64 { return 0 }

// hostCounters are the 52 host-wide counters, in catalog order.
var hostCounters = [52]perfCounterDef{
	// 26 architectural events.
	{"cycles", "unhalted core cycles (all cores)", func(in perfInputs) float64 { return in.totalPhys }},
	{"instructions", "instructions retired", func(in perfInputs) float64 { return in.instr }},
	{"branches", "branch instructions retired", func(in perfInputs) float64 { return in.instr * branchFraction }},
	{"branch-misses", "mispredicted branches", func(in perfInputs) float64 { return in.instr * branchFraction * branchMissRate }},
	{"bus-cycles", "bus cycles", func(in perfInputs) float64 { return in.totalPhys / 8 }},
	{"stalled-cycles-frontend", "cycles with stalled instruction fetch", func(in perfInputs) float64 { return in.totalPhys * 0.12 }},
	{"stalled-cycles-backend", "cycles with stalled execution", func(in perfInputs) float64 { return in.totalPhys * 0.22 }},
	{"ref-cycles", "reference (unscaled) cycles", func(in perfInputs) float64 { return in.totalPhys }},
	{"cache-references", "last-level cache references", func(in perfInputs) float64 { return in.instr * llcRefPerInstr }},
	{"cache-misses", "last-level cache misses", func(in perfInputs) float64 { return in.instr * llcRefPerInstr * llcMissRate }},
	{"L1-dcache-loads", "L1 data cache loads", func(in perfInputs) float64 { return in.instr * l1LoadPerInstr }},
	{"L1-dcache-load-misses", "L1 data cache load misses", func(in perfInputs) float64 { return in.instr * l1LoadPerInstr * l1MissRate }},
	{"L1-dcache-stores", "L1 data cache stores", func(in perfInputs) float64 { return in.instr * l1LoadPerInstr * 0.55 }},
	{"L1-dcache-store-misses", "L1 data cache store misses", func(in perfInputs) float64 { return in.instr * l1LoadPerInstr * 0.55 * l1MissRate }},
	{"L1-icache-loads", "L1 instruction cache loads", func(in perfInputs) float64 { return in.instr * 0.25 }},
	{"L1-icache-load-misses", "L1 instruction cache load misses", func(in perfInputs) float64 { return in.instr * 0.25 * 0.011 }},
	{"LLC-loads", "last-level cache loads", func(in perfInputs) float64 { return in.instr * llcRefPerInstr * 0.7 }},
	{"LLC-load-misses", "last-level cache load misses", func(in perfInputs) float64 { return in.instr * llcRefPerInstr * 0.7 * llcMissRate }},
	{"LLC-stores", "last-level cache stores", func(in perfInputs) float64 { return in.instr * llcRefPerInstr * 0.3 }},
	{"LLC-store-misses", "last-level cache store misses", func(in perfInputs) float64 { return in.instr * llcRefPerInstr * 0.3 * llcMissRate }},
	{"dTLB-loads", "data TLB loads", func(in perfInputs) float64 { return in.instr * tlbLoadFraction }},
	{"dTLB-load-misses", "data TLB load misses", func(in perfInputs) float64 { return in.instr * tlbLoadFraction * tlbMissRate }},
	{"dTLB-stores", "data TLB stores", func(in perfInputs) float64 { return in.instr * tlbLoadFraction * 0.5 }},
	{"dTLB-store-misses", "data TLB store misses", func(in perfInputs) float64 { return in.instr * tlbLoadFraction * 0.5 * tlbMissRate }},
	{"iTLB-loads", "instruction TLB loads", func(in perfInputs) float64 { return in.instr * 0.2 }},
	{"iTLB-load-misses", "instruction TLB load misses", func(in perfInputs) float64 { return in.instr * 0.2 * 0.0011 }},

	// 9 software events.
	{"context-switches", "scheduler context switches", func(in perfInputs) float64 { return float64(in.hv.perf.ContextSwitches) }},
	{"cpu-migrations", "VCPU migrations between cores", func(in perfInputs) float64 { return float64(in.hv.perf.SchedRuns) * 0.02 }},
	{"page-faults", "total page faults", func(in perfInputs) float64 { return float64(in.faults) }},
	{"minor-faults", "minor page faults", func(in perfInputs) float64 { return float64(in.faults - in.majFaults) }},
	{"major-faults", "major page faults", func(in perfInputs) float64 { return float64(in.majFaults) }},
	{"alignment-faults", "alignment fixups", never},
	{"emulation-faults", "emulated instructions", never},
	{"task-clock", "task clock (ms)", func(in perfInputs) float64 { return in.seconds() * 1e3 }},
	{"cpu-clock", "cpu clock (ms)", func(in perfInputs) float64 { return in.seconds() * 1e3 }},

	// 6 Xen-specific events.
	{"xen-hypercalls", "hypercalls serviced", func(in perfInputs) float64 { return in.hypercalls }},
	{"xen-grant-table-ops", "grant table map/unmap operations", func(in perfInputs) float64 { return float64(in.ios) * 2 }},
	{"xen-event-channel-notifications", "event channel notifications", func(in perfInputs) float64 { return float64(in.ios) * 3 }},
	{"xen-sched-runs", "credit scheduler invocations", func(in perfInputs) float64 { return float64(in.hv.perf.SchedRuns) }},
	{"xen-steal-time-ms", "cumulative steal time across domains (ms)", func(in perfInputs) float64 { return in.stealMs }},
	{"xen-domain-switches", "domain context switches", func(in perfInputs) float64 { return float64(in.hv.perf.ContextSwitches) }},

	// 8 L2/node events.
	{"L2-loads", "L2 cache loads", func(in perfInputs) float64 { return in.instr * l1LoadPerInstr * l1MissRate }},
	{"L2-load-misses", "L2 cache load misses", func(in perfInputs) float64 { return in.instr * l1LoadPerInstr * l1MissRate * 0.3 }},
	{"L2-stores", "L2 cache stores", func(in perfInputs) float64 { return in.instr * l1LoadPerInstr * 0.55 * l1MissRate }},
	{"L2-store-misses", "L2 cache store misses", func(in perfInputs) float64 { return in.instr * l1LoadPerInstr * 0.55 * l1MissRate * 0.3 }},
	{"node-loads", "local memory node loads", func(in perfInputs) float64 { return in.instr * llcRefPerInstr * llcMissRate * 0.9 }},
	{"node-load-misses", "remote memory node loads", func(in perfInputs) float64 { return in.instr * llcRefPerInstr * llcMissRate * 0.1 }},
	{"node-stores", "local memory node stores", func(in perfInputs) float64 { return in.instr * llcRefPerInstr * llcMissRate * 0.4 }},
	{"node-store-misses", "remote memory node stores", func(in perfInputs) float64 { return in.instr * llcRefPerInstr * llcMissRate * 0.05 }},

	// 3 energy meters.
	{"power-pkg-joules", "package energy meter", func(in perfInputs) float64 { return in.seconds() * 38 }},
	{"power-cores-joules", "core energy meter", func(in perfInputs) float64 { return in.seconds() * 24 }},
	{"power-dram-joules", "DRAM energy meter", func(in perfInputs) float64 { return in.seconds() * 7 }},
}

// perfCores is the number of cores with per-core counters.
const perfCores = 8

// perCore reports one core's share of the host's physical cycles; the
// load is spread evenly, so every core reads the same.
func (in perfInputs) perCore() float64 { return in.totalPhys / perfCores }

// coreCounters are the 9 counters each core reports, named
// "cpu<core>-<suffix>" and described "core <core> <desc>".
var coreCounters = [9]perfCounterDef{
	{"cycles", "unhalted cycles", func(in perfInputs) float64 { return in.perCore() }},
	{"instructions", "instructions retired", func(in perfInputs) float64 { return in.perCore() * ipc }},
	{"cache-misses", "LLC misses", func(in perfInputs) float64 { return in.perCore() * ipc * llcRefPerInstr * llcMissRate }},
	{"branch-misses", "branch misses", func(in perfInputs) float64 { return in.perCore() * ipc * branchFraction * branchMissRate }},
	{"aperf", "actual performance clock", func(in perfInputs) float64 { return in.perCore() }},
	{"mperf", "maximum performance clock", func(in perfInputs) float64 {
		return float64(in.hv.k.Now()) / 1e9 * in.hv.host.Spec.FreqHz / perfCores
	}},
	{"irqs", "hardware interrupts", func(in perfInputs) float64 { return float64(in.hv.dom0.OS.Interrupts) / perfCores }},
	{"softirqs", "soft interrupts", func(in perfInputs) float64 { return float64(in.hv.dom0.OS.SoftIRQs) / perfCores }},
	{"llc-references", "LLC references", func(in perfInputs) float64 { return in.perCore() * ipc * llcRefPerInstr }},
}

// perfVMSlots is the number of VM slots with runstate counters: the
// testbed hosts up to ten VMs per server, and empty slots read zero.
const perfVMSlots = 10

// slotCounter declares one runstate counter of a VM slot, evaluated
// over the guest in that slot.
type slotCounter struct {
	suffix, desc string
	value        func(in perfInputs, g *Domain) float64
}

// slotCounters are the 3 counters each VM slot reports, named
// "dom<slot>-<suffix>" and described "VM slot <slot> <desc>".
var slotCounters = [3]slotCounter{
	{"runstate-running-ms", "time running (ms)", func(_ perfInputs, g *Domain) float64 {
		return float64(g.CPU.BusyTime()) / 1e6
	}},
	{"runstate-runnable-ms", "time runnable/stolen (ms)", func(_ perfInputs, g *Domain) float64 {
		return float64(g.StealTime()) / 1e6
	}},
	{"runstate-blocked-ms", "time blocked (ms)", func(in perfInputs, g *Domain) float64 {
		busy := float64(g.CPU.BusyTime()+g.StealTime()) / 1e6
		total := float64(in.hv.k.Now()) / 1e6 * float64(g.VCPUs)
		if total < busy {
			return 0
		}
		return total - busy
	}},
}

// PerfCounterCount is the number of hypervisor hardware counters, equal
// to the paper's 154: 52 host-wide counters, 8 cores x 9 and 10 VM
// slots x 3.
const PerfCounterCount = 154

// perfCounters is the catalog in harvest order. The paper profiled 154
// hardware counters with a modified perf running in the Xen hypervisor;
// this table reproduces that width, and a test pins its bytes.
var perfCounters = buildPerfCounters()

// buildPerfCounters expands the per-core and per-slot rows, binding each
// row's index, after the host-wide counters.
func buildPerfCounters() []perfCounterDef {
	out := append(make([]perfCounterDef, 0, PerfCounterCount), hostCounters[:]...)
	for core := 0; core < perfCores; core++ {
		n := strconv.Itoa(core)
		for _, c := range coreCounters {
			out = append(out, perfCounterDef{"cpu" + n + "-" + c.name, "core " + n + " " + c.desc, c.value})
		}
	}
	for slot := 1; slot <= perfVMSlots; slot++ {
		n := strconv.Itoa(slot)
		for _, c := range slotCounters {
			value := c.value
			out = append(out, perfCounterDef{"dom" + n + "-" + c.suffix, "VM slot " + n + " " + c.desc,
				func(in perfInputs) float64 {
					if slot > len(in.hv.guests) {
						return 0
					}
					return value(in, in.hv.guests[slot-1])
				}})
		}
	}
	return out
}

// CatalogOnly returns the counter identities with zero values, for code
// that needs the catalog without a live hypervisor (e.g. Table 1).
func CatalogOnly() []PerfCounter {
	out := make([]PerfCounter, len(perfCounters))
	for i, c := range perfCounters {
		out[i] = PerfCounter{Name: c.name, Description: c.desc}
	}
	return out
}

// PerfCounters synthesizes the 154 hypervisor counters from cumulative
// simulation state. Counters are cumulative; the collector differences
// consecutive samples.
func (hv *Hypervisor) PerfCounters() []PerfCounter {
	in := perfInputs{hv: hv, totalPhys: hv.dom0.PhysCycles()}
	guestPhys := 0.0
	for _, g := range hv.guests {
		guestPhys += g.PhysCycles()
		in.hypercalls += g.hypercallPhys / hv.params.HypercallCycles
		in.stealMs += float64(g.StealTime()) / 1e6
	}
	in.totalPhys += guestPhys
	in.instr = in.totalPhys * ipc
	in.addDomain(hv.dom0)
	for _, g := range hv.guests {
		in.addDomain(g)
	}

	out := make([]PerfCounter, len(perfCounters))
	for i, c := range perfCounters {
		out[i] = PerfCounter{Name: c.name, Description: c.desc, Value: c.value(in)}
	}
	return out
}

// addDomain adds d's fault and I/O counts to the harvest totals.
func (in *perfInputs) addDomain(d *Domain) {
	in.faults += d.OS.Faults
	in.majFaults += d.OS.MajFaults
	in.ios += d.DiskOps
}
