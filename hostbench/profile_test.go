package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func TestAttributeChargesInnermostProgramFrame(t *testing.T) {
	stacks := []stack{
		// Allocation under a decode: runtime frames above the layer count
		// to it, and the sample falls in two groups.
		{[]string{"runtime.mallocgc", "runtime.newobject", internalPrefix + "rubisdb.DecodeRow",
			internalPrefix + "rubisdb.(*Heap).Fetch", internalPrefix + "rubis.(*App).query", "main.main"}, 3},
		// Seeding in math/rand charges the rng layer, not tiers.
		{[]string{"math/rand.seedrand", "math/rand.(*rngSource).Seed", "math/rand.NewSource",
			internalPrefix + "rng.(*Source).Stream", internalPrefix + "tiers.NewDriver"}, 2},
		// Generic and closure frames resolve to their package.
		{[]string{internalPrefix + "sim.(*FreeList[go.shape.struct {}]).Get", internalPrefix + "sim.(*Kernel).Run.func1"}, 4},
		{[]string{internalPrefix + "runner.Run.func1", "runtime.goexit"}, 1},
		// GC-only stacks have no vwchar frame at all.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, 5},
		// The benchmark's own work, with no program frame below it.
		{[]string{"crypto/sha256.block", "main.digestBytes", "main.main"}, 1},
		// Population: the bulk load counts to rubisdb and to both groups.
		{[]string{internalPrefix + "rubisdb.(*Table).BulkInsert", internalPrefix + "rubis.(*App).populate",
			internalPrefix + "rubis.NewApp", internalPrefix + "rubis.NewSnapshot"}, 2},
	}
	a := attribute(stacks)
	if a.Total != 18 {
		t.Fatalf("total = %d, want 18", a.Total)
	}
	wantLayers := map[string]int64{"rubisdb": 5, "rng": 2, "sim": 4, "runner": 1, layerRuntime: 5, layerBench: 1}
	if !reflect.DeepEqual(a.Layers, wantLayers) {
		t.Errorf("layers = %v, want %v", a.Layers, wantLayers)
	}
	wantGroups := map[string]int64{"rubisdb.decode": 3, "rubisdb.bulkload": 2, "rng.seed": 2, "rubis.populate": 2, "runtime.malloc": 3}
	if !reflect.DeepEqual(a.Groups, wantGroups) {
		t.Errorf("groups = %v, want %v", a.Groups, wantGroups)
	}
	if got := a.share(a.Layers["sim"]); got != 4.0/18 {
		t.Errorf("sim share = %v, want 4/18", got)
	}
}

func TestShareMetricsSumToOne(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	a := attribution{
		Total:  10,
		Layers: map[string]int64{"sim": 4, "rubisdb": 2, "model": 1, layerRuntime: 2, layerBench: 1},
		Groups: map[string]int64{},
	}
	m := shareMetrics(a, cat)
	if m["other.cpu_samples"] != 1 || m["runtime.gc_samples"] != 2 || m["bench.cpu_samples"] != 1 {
		t.Errorf("other %v, gc %v, bench %v samples; want 1, 2, 1", m["other.cpu_samples"], m["runtime.gc_samples"], m["bench.cpu_samples"])
	}
	sum := m["runtime.gc_share"]
	for _, d := range cat.perLayer() {
		if strings.HasSuffix(d.Name, ".cpu_share") {
			sum += m[d.Name]
		}
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
}

// Minimal protobuf writer for a synthetic profile.
type pbuf struct{ bytes.Buffer }

func (b *pbuf) varint(num int, v uint64) {
	b.uvarint(uint64(num)<<3 | 0)
	b.uvarint(v)
}

func (b *pbuf) bytesField(num int, p []byte) {
	b.uvarint(uint64(num)<<3 | 2)
	b.uvarint(uint64(len(p)))
	b.Write(p)
}

func (b *pbuf) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func packed(vs ...uint64) []byte {
	var b pbuf
	for _, v := range vs {
		b.uvarint(v)
	}
	return b.Bytes()
}

func TestParseProfileReadsInlinedFramesLeafFirst(t *testing.T) {
	var p pbuf
	for _, s := range []string{"", "samples", "count", "leaf", "inliner", "root"} {
		p.bytesField(6, []byte(s))
	}
	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5} {
		var f pbuf
		f.varint(1, id)
		f.varint(2, name)
		p.bytesField(5, f.Bytes())
	}
	// Location 10 holds leaf inlined into inliner; location 11 is root.
	line := func(fn uint64) []byte {
		var l pbuf
		l.varint(1, fn)
		return l.Bytes()
	}
	var loc pbuf
	loc.varint(1, 10)
	loc.bytesField(4, line(1))
	loc.bytesField(4, line(2))
	p.bytesField(4, loc.Bytes())
	var root pbuf
	root.varint(1, 11)
	root.bytesField(4, line(3))
	p.bytesField(4, root.Bytes())
	// One sample with packed fields, one with unpacked ones.
	var s1 pbuf
	s1.bytesField(1, packed(10, 11))
	s1.bytesField(2, packed(7, 70000000))
	p.bytesField(2, s1.Bytes())
	var s2 pbuf
	s2.varint(1, 11)
	s2.varint(2, 2)
	s2.varint(2, 20000000)
	p.bytesField(2, s2.Bytes())

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	stacks, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{[]string{"leaf", "inliner", "root"}, 7},
		{[]string{"root"}, 2},
	}
	if !reflect.DeepEqual(stacks, want) {
		t.Errorf("stacks = %v, want %v", stacks, want)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}
