package xen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"vwchar/internal/hw"
	"vwchar/internal/sim"
)

// digestWorkload drives two contended guests on a 2-core host through
// CPU work, split-driver disk and network I/O, fsyncs and guest page
// faults, so every family of counters moves, steal time included.
func digestWorkload() (*sim.Kernel, *Hypervisor) {
	k := sim.NewKernel()
	host := hw.NewServer(k, hw.Spec{
		Name: "small", Cores: 2, FreqHz: 2.8e9, RAMBytes: 32 << 30,
		DiskSeek: sim.Millisecond, DiskBytesPerS: 100e6,
		NICLatency: sim.Microsecond, NICBytesPerS: 125e6,
	})
	hv := New(k, host, DefaultParams())
	web := hv.CreateGuest("web", 2, 2<<30, 256)
	db := hv.CreateGuest("db", 2, 2<<30, 256)
	for i := 0; i < 2; i++ {
		web.CPU.Submit(3e9, nil, nil)
		db.CPU.Submit(2e9, nil, nil)
	}
	for i := 0; i < 8; i++ {
		hv.GuestDiskIO(db, float64(16<<10*(i+1)), i%2 == 0, nil, nil)
		hv.GuestNetExternal(web, float64(4000*(i+1)), i%3 != 0, nil, nil)
		hv.GuestNetInterVM(web, db, float64(1500*(i+1)), nil, nil)
	}
	hv.GuestFsync(db, 5)
	web.OS.NoteFaults(300, 7)
	db.OS.NoteFaults(120, 3)
	k.Run(25 * sim.Second)
	return k, hv
}

// TestPerfCountersDigest pins all 154 counters bit for bit: name,
// description and the IEEE-754 bits of each value after a fixed
// workload. Any change to the catalog's order, wording or derivation
// formulas moves the digest.
func TestPerfCountersDigest(t *testing.T) {
	const want = "0712d80bbc083d011569a064036627d72d91cc8ae430e86d7cfd761ccca125f0"
	_, hv := digestWorkload()
	if hv.Guests()[0].StealTime() <= 0 || hv.Guests()[1].StealTime() <= 0 {
		t.Fatal("workload should leave both guests with steal time")
	}
	h := sha256.New()
	var bits [8]byte
	for _, c := range hv.PerfCounters() {
		h.Write([]byte(c.Name))
		h.Write([]byte{0})
		h.Write([]byte(c.Description))
		h.Write([]byte{0})
		binary.BigEndian.PutUint64(bits[:], math.Float64bits(c.Value))
		h.Write(bits[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("perf counter digest = %s, want %s", got, want)
	}
}

// perfSink keeps measured results live.
var perfSink []PerfCounter

// TestPerfCatalogAllocs: the counter table is built once, at package
// init, so a harvest allocates only its result slice and so does a
// read of the bare catalog.
func TestPerfCatalogAllocs(t *testing.T) {
	_, hv := digestWorkload()
	if n := testing.AllocsPerRun(100, func() { perfSink = hv.PerfCounters() }); n > 1 {
		t.Fatalf("PerfCounters: %v allocs per harvest, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { perfSink = CatalogOnly() }); n > 1 {
		t.Fatalf("CatalogOnly: %v allocs per call, want at most 1", n)
	}
}
