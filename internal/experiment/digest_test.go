package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
)

// TestFullCatalogDigest pins the monitoring plane's bytes: every
// target x metric full-catalog series of one short virtualized run and
// one short physical run, the virtualized run's final perf counters,
// and the rendered Table 1. Any change to the catalog's order, names,
// evaluators or the collector's sampling moves the digest.
func TestFullCatalogDigest(t *testing.T) {
	const want = "d47444660d19da343e75175d867086393d6a867a2ab8868d3b1c10987dd8985b"
	h := sha256.New()
	var bits [8]byte
	putFloat := func(v float64) {
		binary.BigEndian.PutUint64(bits[:], math.Float64bits(v))
		h.Write(bits[:])
	}
	for _, env := range []Env{Virtualized, Physical} {
		cfg := shortConfig(env, MixBidding)
		cfg.KeepFullCatalog = true
		cfg.Clients = 60
		cfg.Duration = 30 * sim.Second
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(env))
		for _, target := range r.Collector.TargetNames() {
			for _, metric := range r.Collector.MetricNames() {
				s, err := r.Collector.Metric(target, metric)
				if err != nil {
					t.Fatal(err)
				}
				if s.Len() != int(cfg.Duration/sysstat.SampleInterval) {
					t.Fatalf("%s %s/%s: %d samples", env, target, metric, s.Len())
				}
				h.Write([]byte(target + "/" + metric + "\x00"))
				for _, v := range s.Values {
					putFloat(v)
				}
			}
		}
		for _, c := range r.PerfFinal {
			h.Write([]byte(c.Name + "\x00" + c.Description + "\x00"))
			putFloat(c.Value)
		}
	}
	var table bytes.Buffer
	if err := sysstat.WriteTable1(&table); err != nil {
		t.Fatal(err)
	}
	h.Write(table.Bytes())
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("full-catalog digest = %s, want %s", got, want)
	}
}
