package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"vwchar/internal/cachetier"
	"vwchar/internal/faults"
	"vwchar/internal/load"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
	"vwchar/internal/tiers"
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

// TestWindowSeriesDigest pins the windowed telemetry's bytes: every
// present series of three short runs that together emit all of
// SeriesNames. The first arms every optional layer at once (an
// autoscaled cluster, faults with the load-coupled hazard, resilience
// with brownout, the cache and the queue); the second is open-loop with
// resilience; the third is physical with resilience, whose fault series
// come from the request layer alone. Any change to a series' name,
// unit, time axis, sampling instant or arithmetic moves the digest.
func TestWindowSeriesDigest(t *testing.T) {
	const want = "7a618e2aafc4de1ed6b82f379dbc7b336c4acd78cb1e1b2d54589c35aa5d2858"
	everything := shortConfig(Virtualized, MixBidding)
	everything.Clients = 600
	everything.Duration = 40 * sim.Second
	everything.Topology = &tiers.Topology{
		WebReplicas:    2,
		MaxWebReplicas: 3,
		DBReadReplicas: 1,
		Machines:       2,
		LB:             tiers.LBJoinShortestQueue,
		Autoscaler:     &tiers.AutoscalerSpec{SLOMillis: 8, BootSeconds: 4, CooldownSeconds: 8},
	}
	everything.Faults = &faults.Schedule{
		WebCrash:   &faults.Component{AtSeconds: 10, MTTRSeconds: 6, Targets: []int{1}},
		CacheCrash: &faults.Component{AtSeconds: 18, MTTRSeconds: 5},
		Hazard:     &faults.HazardSpec{UtilThreshold: 0.015, CrashProb: 0.5, MTTRSeconds: 8, MaxCrashes: 2},
	}
	everything.Resilience = faults.DefaultResilience()
	everything.Resilience.TimeoutMillis = 12
	everything.Resilience.Breaker = &faults.BreakerSpec{ErrorThreshold: 0.3, WindowRequests: 20, OpenMillis: 400}
	everything.Resilience.Brownout = &faults.BrownoutSpec{EnterUtil: 0.01, ExitUtil: 0.002, DropFraction: 0.5, MaxLevel: 2}
	everything.Cache = &cachetier.CacheSpec{TTLSeconds: 3}
	everything.Queue = ptrSpec(cachetier.DefaultQueueSpec())

	open := shortConfig(Virtualized, MixBrowsing)
	open.Duration = 40 * sim.Second
	open.Load = &load.Spec{
		Kind: load.Spike, Rate: 10, SpikeFactor: 6,
		SpikeAt: 10, SpikeRamp: 5, SpikeHold: 15,
		SessionMean: 8, AbandonAfterSeconds: 0.01,
	}
	open.Resilience = faults.DefaultResilience()

	physical := shortConfig(Physical, MixBidding)
	physical.Clients = 150
	physical.Duration = 30 * sim.Second
	physical.Resilience = faults.DefaultResilience()

	h := sha256.New()
	var bits [8]byte
	putFloat := func(v float64) {
		binary.BigEndian.PutUint64(bits[:], math.Float64bits(v))
		h.Write(bits[:])
	}
	seen := map[string]bool{}
	for _, cfg := range []Config{everything, open, physical} {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		windows := int(cfg.Duration / sysstat.SampleInterval)
		for _, s := range r.Telemetry.Present() {
			if s.Len() != windows {
				t.Fatalf("%s: %d windows, want %d", s.Name, s.Len(), windows)
			}
			seen[s.Name] = true
			h.Write([]byte(s.Name + "\x00" + s.Unit + "\x00"))
			putFloat(s.Interval)
			putFloat(s.Start)
			for _, v := range s.Values {
				putFloat(v)
			}
		}
	}
	for _, name := range telemetry.SeriesNames {
		if !seen[name] {
			t.Errorf("no run emitted %s", name)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("window-series digest = %s, want %s", got, want)
	}
}
