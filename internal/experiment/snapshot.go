package experiment

import (
	"vwchar/internal/hw"
	"vwchar/internal/osmodel"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/xen"
)

// guestFreqHz is the clock rate a guest reports: the host's nominal
// frequency, whatever machine the guest runs on.
const guestFreqHz = 2.8e9

// ticking turns a counter read into a collector snapshot function that
// first advances os's load-average clock to the sample time.
func ticking(k *sim.Kernel, os *osmodel.OS, read func() sysstat.Snapshot) func() sysstat.Snapshot {
	var lastTick sim.Time
	return func() sysstat.Snapshot {
		now := k.Now()
		os.Tick(now - lastTick)
		lastTick = now
		s := read()
		s.At = now
		return s
	}
}

// vmSnapshot builds the snapshot function for a guest domain.
func vmSnapshot(k *sim.Kernel, d *xen.Domain) func() sysstat.Snapshot {
	return ticking(k, d.OS, func() sysstat.Snapshot { return vmRead(d) })
}

// dom0Snapshot builds the snapshot function for the hypervisor's dom0:
// its own CPU plus the physical disk and NIC it drives for the guests.
func dom0Snapshot(k *sim.Kernel, hv *xen.Hypervisor) func() sysstat.Snapshot {
	return ticking(k, hv.Dom0().OS, func() sysstat.Snapshot { return dom0Read(hv) })
}

// pmSnapshot builds the snapshot function for a bare-metal server.
func pmSnapshot(k *sim.Kernel, srv *hw.Server, os *osmodel.OS) func() sysstat.Snapshot {
	return ticking(k, os, func() sysstat.Snapshot { return pmRead(srv, os) })
}

// vmAggSnapshot sums guest counters across doms without ticking their
// OS clocks: the per-VM targets, registered earlier in the same
// collection round, own the ticks.
func vmAggSnapshot(k *sim.Kernel, doms []*xen.Domain) func() sysstat.Snapshot {
	return func() sysstat.Snapshot {
		var s sysstat.Snapshot
		for _, d := range doms {
			addSnapshot(&s, vmRead(d))
		}
		s.At, s.FreqHz = k.Now(), guestFreqHz
		return s
	}
}

// dom0AggSnapshot sums dom0 and host-device counters across machines
// without ticking (the per-machine dom0 targets own the ticks). The
// frequency is the last host's.
func dom0AggSnapshot(k *sim.Kernel, hvs []*xen.Hypervisor) func() sysstat.Snapshot {
	return func() sysstat.Snapshot {
		var s sysstat.Snapshot
		for _, hv := range hvs {
			addSnapshot(&s, dom0Read(hv))
		}
		s.At, s.FreqHz = k.Now(), hvs[len(hvs)-1].Host().Spec.FreqHz
		return s
	}
}

// vmRead reads a guest's counters.
func vmRead(d *xen.Domain) sysstat.Snapshot {
	s := sysstat.Snapshot{
		CPUCycles:      d.VirtCycles(),
		CPUBusy:        d.CPU.BusyTime(),
		StealTime:      d.StealTime(),
		Cores:          d.VCPUs,
		FreqHz:         guestFreqHz,
		MemTotal:       d.Mem.Capacity(),
		MemUsed:        d.Mem.Used(),
		MemBuffers:     d.Mem.Used() * 0.04,
		MemCached:      d.Mem.Get("dbcache") + d.Mem.Get("pagecache"),
		DiskReadBytes:  d.DiskReadBytes,
		DiskWriteBytes: d.DiskWrittenBytes,
		DiskReadOps:    d.DiskOps / 2,
		DiskWriteOps:   d.DiskOps - d.DiskOps/2,
		NetRxBytes:     d.NetRxBytes,
		NetTxBytes:     d.NetTxBytes,
		NetRxPkts:      uint64(d.NetRxBytes/1500) + 1,
		NetTxPkts:      uint64(d.NetTxBytes/1500) + 1,
		TCPSocks:       40 + d.OS.RunQueue*2,
		UDPSocks:       4,
	}
	readOS(&s, d.OS)
	return s
}

// dom0Read reads dom0's counters and the host devices it drives.
func dom0Read(hv *xen.Hypervisor) sysstat.Snapshot {
	d := hv.Dom0()
	host := hv.Host()
	s := hostRead(host)
	s.CPUCycles = d.CPU.TotalCycles()
	s.CPUBusy = d.CPU.BusyTime()
	s.Cores = d.VCPUs
	s.MemTotal = d.Mem.Capacity()
	s.MemUsed = d.Mem.Used()
	s.MemBuffers = d.Mem.Get("backend-buffers")
	s.MemCached = d.Mem.Get("pagecache")
	s.TCPSocks, s.UDPSocks = 35, 6
	readOS(&s, d.OS)
	return s
}

// pmRead reads a bare-metal server's counters.
func pmRead(srv *hw.Server, os *osmodel.OS) sysstat.Snapshot {
	s := hostRead(srv)
	s.CPUCycles = srv.CPU.TotalCycles()
	s.CPUBusy = srv.CPU.BusyTime()
	s.Cores = srv.Spec.Cores
	s.MemTotal = srv.Mem.Capacity()
	s.MemUsed = srv.Mem.Used()
	s.MemBuffers = srv.Mem.Used() * 0.05
	s.MemCached = srv.Mem.Get("dbcache") + srv.Mem.Get("pagecache")
	s.TCPSocks, s.UDPSocks = 60+os.RunQueue*2, 5
	readOS(&s, os)
	return s
}

// hostRead reads a physical server's clock, disk and NIC counters.
func hostRead(srv *hw.Server) sysstat.Snapshot {
	rops, wops := srv.Disk.Ops()
	rpk, tpk := srv.NIC.Packets()
	return sysstat.Snapshot{
		FreqHz:         srv.Spec.FreqHz,
		DiskReadBytes:  srv.Disk.ReadBytes(),
		DiskWriteBytes: srv.Disk.WrittenBytes(),
		DiskReadOps:    rops,
		DiskWriteOps:   wops,
		DiskBusy:       srv.Disk.BusyTime(),
		NetRxBytes:     srv.NIC.RxBytes(),
		NetTxBytes:     srv.NIC.TxBytes(),
		NetRxPkts:      rpk,
		NetTxPkts:      tpk,
	}
}

// readOS fills the snapshot's kernel counters, run-state gauges and
// load averages from os.
func readOS(s *sysstat.Snapshot, os *osmodel.OS) {
	s.CtxSwitches, s.Interrupts, s.SoftIRQs, s.Forks = os.CtxSwitches, os.Interrupts, os.SoftIRQs, os.Forks
	s.Faults, s.MajFaults = os.Faults, os.MajFaults
	s.PgInBytes, s.PgOutBytes = os.PgInBytes, os.PgOutBytes
	s.Procs, s.RunQueue, s.Blocked, s.OpenFds = os.Procs, os.RunQueue, os.Blocked, os.OpenFds
	s.Load1, s.Load5, s.Load15 = os.LoadAvg()
}

// addSnapshot adds every cumulative and gauge field of r to s. At and
// FreqHz are not sums; the aggregate sets them.
func addSnapshot(s *sysstat.Snapshot, r sysstat.Snapshot) {
	s.CPUCycles += r.CPUCycles
	s.CPUBusy += r.CPUBusy
	s.StealTime += r.StealTime
	s.Cores += r.Cores
	s.MemTotal += r.MemTotal
	s.MemUsed += r.MemUsed
	s.MemBuffers += r.MemBuffers
	s.MemCached += r.MemCached
	s.DiskReadBytes += r.DiskReadBytes
	s.DiskWriteBytes += r.DiskWriteBytes
	s.DiskReadOps += r.DiskReadOps
	s.DiskWriteOps += r.DiskWriteOps
	s.DiskBusy += r.DiskBusy
	s.NetRxBytes += r.NetRxBytes
	s.NetTxBytes += r.NetTxBytes
	s.NetRxPkts += r.NetRxPkts
	s.NetTxPkts += r.NetTxPkts
	s.CtxSwitches += r.CtxSwitches
	s.Interrupts += r.Interrupts
	s.SoftIRQs += r.SoftIRQs
	s.Forks += r.Forks
	s.Faults += r.Faults
	s.MajFaults += r.MajFaults
	s.PgInBytes += r.PgInBytes
	s.PgOutBytes += r.PgOutBytes
	s.Procs += r.Procs
	s.RunQueue += r.RunQueue
	s.Blocked += r.Blocked
	s.OpenFds += r.OpenFds
	s.TCPSocks += r.TCPSocks
	s.UDPSocks += r.UDPSocks
	s.Load1 += r.Load1
	s.Load5 += r.Load5
	s.Load15 += r.Load15
}
