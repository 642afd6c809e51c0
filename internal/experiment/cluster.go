package experiment

import (
	"fmt"

	"vwchar/internal/cachetier"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/tiers"
	"vwchar/internal/xen"
)

// vmInstance is one assembled RUBiS instance on the virtualized
// testbed: the web cluster, its DB tier, the optional cache and
// write-behind queue nodes, and the guest domains backing them (for
// collector targets).
type vmInstance struct {
	cluster *tiers.WebCluster
	dbc     *tiers.DBCluster
	webDoms []*xen.Domain
	dbDoms  []*xen.Domain // primary first, then read replicas

	cacheSrv *tiers.CacheServer
	cacheDom *xen.Domain
	queueSrv *tiers.QueueServer
	queueDom *xen.Domain
}

// buildVMInstance assembles one RUBiS instance for the (normalized)
// topology on the given hypervisors. pair is the consolidation index:
// multi-pair runs place several degenerate instances side by side, so
// guest names stay unique and, for the degenerate single-pair case,
// identical to the pre-topology assembly ("webapp-vm-0", "mysql-vm-0").
//
// Construction order is part of the determinism contract: web guests
// (in replica order), then DB guests (primary, then read replicas),
// then DB servers before web servers — exactly the pre-topology
// sequence when the topology is degenerate, so the golden sweep hash
// pins this path.
func buildVMInstance(k *sim.Kernel, hvs []*xen.Hypervisor, topo tiers.Topology, pair int, app *rubis.App, cache *cachetier.CacheSpec, queue *cachetier.QueueSpec) *vmInstance {
	inst := &vmInstance{}
	hvFor := func(vm int) *xen.Hypervisor { return hvs[topo.MachineFor(vm)] }

	for i := 0; i < topo.MaxWebReplicas; i++ {
		d := hvFor(i).CreateGuest(fmt.Sprintf("webapp-vm-%d", pair*topo.MaxWebReplicas+i), 2, 2<<30, 256)
		inst.webDoms = append(inst.webDoms, d)
	}
	primaryVM := topo.MaxWebReplicas
	primaryDom := hvFor(primaryVM).CreateGuest(fmt.Sprintf("mysql-vm-%d", pair), 2, 2<<30, 256)
	inst.dbDoms = append(inst.dbDoms, primaryDom)
	for j := 0; j < topo.DBReadReplicas; j++ {
		d := hvFor(primaryVM+1+j).CreateGuest(fmt.Sprintf("mysql-ro-vm-%d", j), 2, 2<<30, 256)
		inst.dbDoms = append(inst.dbDoms, d)
	}
	for _, d := range inst.webDoms {
		d.Mem.Set("kernel", 50e6)
	}
	for _, d := range inst.dbDoms {
		d.Mem.Set("kernel", 22e6)
	}

	// DB tier first (its checkpoint ticker precedes the web spill
	// tickers in the event order, as before the refactor). Read
	// replicas carry no engine reference: only the primary checkpoints
	// the shared storage engine.
	primaryBE := &tiers.VMBackend{HV: hvFor(primaryVM), Dom: primaryDom}
	primary := tiers.NewDBServer(k, primaryBE, app, tiers.DefaultDBParams("vm"))
	var replicas []*tiers.DBServer
	for j := 0; j < topo.DBReadReplicas; j++ {
		dom := inst.dbDoms[1+j]
		be := &tiers.VMBackend{HV: hvFor(primaryVM + 1 + j), Dom: dom}
		params := tiers.DefaultDBParams("vm")
		params.CheckpointEvery = 0
		replicas = append(replicas, tiers.NewDBServer(k, be, nil, params))
	}
	inst.dbc = tiers.NewDBCluster(primary, replicas, topo.ReplicaLag())
	// dbPaths lists the paths from guest dom on machine m to every DB
	// instance, primary first.
	dbPaths := func(m int, dom *xen.Domain) []tiers.PathPair {
		paths := make([]tiers.PathPair, len(inst.dbDoms))
		for j, db := range inst.dbDoms {
			paths[j] = vmPaths(k, hvs, m, dom, topo.MachineFor(primaryVM+j), db)
		}
		return paths
	}

	webs := make([]*tiers.WebAppServer, 0, topo.MaxWebReplicas)
	for i, dom := range inst.webDoms {
		be := &tiers.VMBackend{HV: hvFor(i), Dom: dom}
		webs = append(webs, tiers.NewWebAppServer(k, be, inst.dbc, dbPaths(topo.MachineFor(i), dom), tiers.DefaultWebParams("vm")))
	}
	inst.cluster = tiers.NewWebCluster(k, webs, topo.WebReplicas, tiers.NewLoadBalancer(topo.LB))
	if cache == nil && queue == nil {
		// The golden path: nothing below runs, no extra guests, no extra
		// events — byte identity with the pre-cache assembly.
		return inst
	}

	// Aux tiers append strictly after the classic guests so the
	// construction prefix (and with nil specs, the whole assembly) stays
	// on the golden sequence. Without an explicit placement the aux VMs
	// round-robin onto the machines after the classic ones; an explicit
	// placement vector does not cover them, so they co-locate with the
	// DB primary (the tier they shield).
	auxMachine := func(i int) int {
		if len(topo.Placement) > 0 {
			return topo.MachineFor(primaryVM)
		}
		return (topo.VMCount() + i) % topo.Machines
	}

	if cache != nil {
		m := auxMachine(0)
		dom := hvs[m].CreateGuest(fmt.Sprintf("memcache-vm-%d", pair), 2, 2<<30, 256)
		dom.Mem.Set("kernel", 30e6)
		be := &tiers.VMBackend{HV: hvs[m], Dom: dom}
		inst.cacheSrv = tiers.NewCacheServer(k, be, *cache, tiers.DefaultCacheParams())
		inst.cacheDom = dom
		for i, w := range webs {
			w.SetCacheTier(inst.cacheSrv, vmPaths(k, hvs, topo.MachineFor(i), inst.webDoms[i], m, dom))
		}
	}
	if queue != nil {
		m := auxMachine(1)
		dom := hvs[m].CreateGuest(fmt.Sprintf("wqueue-vm-%d", pair), 2, 2<<30, 256)
		dom.Mem.Set("kernel", 30e6)
		be := &tiers.VMBackend{HV: hvs[m], Dom: dom}
		inst.queueSrv = tiers.NewQueueServer(k, be, inst.dbc, dbPaths(m, dom), *queue, tiers.DefaultQueueParams())
		inst.queueDom = dom
		for i, w := range webs {
			w.SetQueueTier(inst.queueSrv, vmPaths(k, hvs, topo.MachineFor(i), inst.webDoms[i], m, dom))
		}
	}
	return inst
}

// vmTargets builds the collector targets for instance 0. A degenerate
// topology keeps the paper's exact {webapp, mysql, dom0} target list,
// which the golden sweep hash pins. A cluster gets per-VM targets
// first (their snapshots tick the guest OS clocks), then per-machine
// dom0s when there are several machines, then non-ticking aggregates
// under the classic tier names so every existing consumer of
// "webapp"/"mysql"/"dom0" keeps working at cluster scale. The aux
// tiers come last, only when their specs are set, so the classic
// prefix is untouched.
func vmTargets(k *sim.Kernel, hvs []*xen.Hypervisor, topo tiers.Topology, inst *vmInstance) []sysstat.Target {
	var ts []sysstat.Target
	if topo.IsDegenerate() {
		ts = []sysstat.Target{
			{Name: TierWeb, Snap: vmSnapshot(k, inst.webDoms[0])},
			{Name: TierDB, Snap: vmSnapshot(k, inst.dbDoms[0])},
			{Name: TierDom0, Snap: dom0Snapshot(k, hvs[0])},
		}
	} else {
		for i, d := range inst.webDoms {
			ts = append(ts, sysstat.Target{Name: fmt.Sprintf("%s-%d", TierWeb, i), Snap: vmSnapshot(k, d)})
		}
		ts = append(ts, sysstat.Target{Name: TierDB + "-primary", Snap: vmSnapshot(k, inst.dbDoms[0])})
		for j, d := range inst.dbDoms[1:] {
			ts = append(ts, sysstat.Target{Name: fmt.Sprintf("%s-ro-%d", TierDB, j), Snap: vmSnapshot(k, d)})
		}
		if len(hvs) > 1 {
			for m, hv := range hvs {
				ts = append(ts, sysstat.Target{Name: fmt.Sprintf("%s-%d", TierDom0, m), Snap: dom0Snapshot(k, hv)})
			}
			ts = append(ts, sysstat.Target{Name: TierDom0, Snap: dom0AggSnapshot(k, hvs)})
		} else {
			ts = append(ts, sysstat.Target{Name: TierDom0, Snap: dom0Snapshot(k, hvs[0])})
		}
		ts = append(ts,
			sysstat.Target{Name: TierWeb, Snap: vmAggSnapshot(k, inst.webDoms)},
			sysstat.Target{Name: TierDB, Snap: vmAggSnapshot(k, inst.dbDoms)},
		)
	}
	if inst.cacheDom != nil {
		ts = append(ts, sysstat.Target{Name: TierCache, Snap: vmSnapshot(k, inst.cacheDom)})
	}
	if inst.queueDom != nil {
		ts = append(ts, sysstat.Target{Name: TierQueue, Snap: vmSnapshot(k, inst.queueDom)})
	}
	return ts
}

// vmPaths returns the paths between guest a on machine ma and guest b
// on machine mb: the split-driver path through the shared dom0 when
// they share a machine, the cross-machine network path otherwise. To
// runs a to b, From runs b to a.
func vmPaths(k *sim.Kernel, hvs []*xen.Hypervisor, ma int, a *xen.Domain, mb int, b *xen.Domain) tiers.PathPair {
	if ma == mb {
		return tiers.PathPair{To: tiers.VMPath(hvs[ma], a, b), From: tiers.VMPath(hvs[ma], b, a)}
	}
	return tiers.PathPair{
		To:   tiers.CrossVMPath(k, hvs[ma], a, hvs[mb], b),
		From: tiers.CrossVMPath(k, hvs[mb], b, hvs[ma], a),
	}
}
