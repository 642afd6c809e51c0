package telemetry

import (
	"math"
	"testing"

	"vwchar/internal/rng"
)

// TestRecorderWindowSeries pins the windowed pipeline end to end: two
// windows with known observations produce the expected per-window
// mean/quantile/throughput/churn samples on a shared 2 s axis.
func TestRecorderWindowSeries(t *testing.T) {
	rec := NewRecorder(2, false)

	// Window 1: four fast responses, one session starting and ending.
	rec.NoteStart()
	for _, rt := range []float64{0.010, 0.010, 0.010, 0.030} {
		rec.Record(rt, false)
	}
	rec.NoteEnd()
	rec.Rotate(3)

	// Window 2: two slow responses.
	rec.Record(1.0, false)
	rec.Record(2.0, false)
	rec.Rotate(1)

	s := rec.Series()
	if s.Windows() != 2 {
		t.Fatalf("windows = %d, want 2", s.Windows())
	}
	if got, want := s.LatencyMean.At(0), 15.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("window 1 mean = %v ms, want %v", got, want)
	}
	// Rank convention floor(q*(n-1)): the p95 of four samples is the
	// third smallest, and only q=1 reaches the 30 ms outlier.
	if got := s.LatencyP95.At(0); math.Abs(got/10-1) > RelativeErrorBound {
		t.Errorf("window 1 p95 = %v ms, want ~10", got)
	}
	if got, want := s.Throughput.At(0), 2.0; got != want { // 4 completions / 2 s
		t.Errorf("window 1 throughput = %v, want %v", got, want)
	}
	if s.Inflight.At(0) != 3 || s.Inflight.At(1) != 1 {
		t.Errorf("inflight gauge = %v, %v", s.Inflight.At(0), s.Inflight.At(1))
	}
	if s.Starts.At(0) != 1 || s.Ends.At(0) != 1 || s.Starts.At(1) != 0 {
		t.Errorf("churn series wrong: starts %v ends %v", s.Starts.Values, s.Ends.Values)
	}
	if got := s.LatencyMean.At(1); math.Abs(got-1500) > 1e-9 {
		t.Errorf("window 2 mean = %v ms, want 1500", got)
	}
	// The second window's stats are independent of the first: rotation
	// reset the window histogram.
	if got := s.LatencyP50.At(1); math.Abs(got/1000-1) > RelativeErrorBound {
		t.Errorf("window 2 p50 = %v ms, want ~1000", got)
	}
	// Run-level accounting spans both windows.
	if rec.Count() != 6 {
		t.Errorf("run count = %d, want 6", rec.Count())
	}
	if got, want := rec.Mean(), (0.010*3+0.030+1+2)/6; math.Abs(got-want) > 1e-12 {
		t.Errorf("run mean = %v, want %v", got, want)
	}
	for i := range SeriesNames {
		sr := s.All()[i]
		if sr == nil {
			switch SeriesNames[i] {
			case "replicas", "timeouts", "sheds", "failures", "retries", "availability",
				"degraded", "brownout_level", "hazard_rate",
				"cache_hit_ratio", "cache_stampedes", "queue_depth", "queue_lag_ms":
				// Conditionally materialized (replica gauge / fault /
				// degradation / cache / queue telemetry); absent by
				// default.
			default:
				t.Errorf("series %q absent by default", SeriesNames[i])
			}
			continue
		}
		if sr.Name != SeriesNames[i] {
			t.Errorf("series %d named %q, want %q", i, sr.Name, SeriesNames[i])
		}
		if s.ByName(SeriesNames[i]) != sr {
			t.Errorf("ByName(%q) mismatch", SeriesNames[i])
		}
	}
	if s.ByName("nope") != nil {
		t.Error("ByName of unknown name should be nil")
	}
}

// TestRecorderExactQuantileEquivalence pins the golden-bytes contract:
// while observations fit the exact reservoir, Quantile is bit-identical
// to the historical sort-and-index computation over every observation.
func TestRecorderExactQuantileEquivalence(t *testing.T) {
	r := rng.NewSource(3).Stream("exact")
	rec := NewRecorder(2, false)
	var xs []float64
	for i := 0; i < 5000; i++ {
		v := r.LogNormal(math.Log(0.02), 1.0)
		rec.Record(v, false)
		xs = append(xs, v)
		if i%97 == 0 {
			rec.Rotate(0)
		}
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.95, 0.99, 1} {
		if got, want := rec.Quantile(q), oracleQuantile(xs, q); got != want {
			t.Fatalf("q%.2f: recorder %v != exact %v", q, got, want)
		}
	}
	// Interleaving reads and writes keeps the reservoir coherent: a
	// record after a sort dirties it again.
	rec.Record(1e9, false)
	if got, want := rec.Quantile(1), 1e9; got != want {
		t.Fatalf("post-sort record lost: q1 = %v, want %v", got, want)
	}
}

// TestRecorderHistogramFallback pins the over-cap behaviour: past
// DefaultExactCap observations the reservoir stops growing (memory
// stays bounded) and quantiles fall back to the merged run histogram,
// within the stated error bound of the exact answer over ALL
// observations — unlike the replaced reservoir, which silently dropped
// everything after its first 200k samples.
func TestRecorderHistogramFallback(t *testing.T) {
	r := rng.NewSource(5).Stream("fallback")
	rec := NewRecorder(2, true)
	n := DefaultExactCap + 20000
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := r.LogNormal(math.Log(0.05), 0.8)
		rec.Record(v, false)
		xs = append(xs, v)
	}
	if rec.ExactLen() != DefaultExactCap {
		t.Fatalf("reservoir grew to %d, cap %d", rec.ExactLen(), DefaultExactCap)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, want := rec.Quantile(q), oracleQuantile(xs, q)
		if relErr := math.Abs(got/want - 1); relErr > RelativeErrorBound {
			t.Fatalf("q%.2f: hist fallback %v vs exact %v (rel err %v)", q, got, want, relErr)
		}
	}
}

// TestRecorderMemoryBounded is the memory regression test for the
// reservoir replacement: a recorder that has absorbed a million
// observations retains a fixed-size footprint — the two histograms
// plus at most DefaultExactCap reservoir slots — instead of the run-
// length-proportional (or 200k-float) slice it replaced.
func TestRecorderMemoryBounded(t *testing.T) {
	rec := NewRecorder(2, false)
	r := rng.NewSource(9).Stream("mem")
	for i := 0; i < 1_000_000; i++ {
		rec.Record(r.Exp(0.01), false)
	}
	if got := rec.ExactLen(); got > DefaultExactCap {
		t.Fatalf("exact reservoir holds %d > cap %d", got, DefaultExactCap)
	}
	// The retained footprint: reservoir + 2 fixed histograms. Pin it
	// well under the old reservoir's 200000 float64s (1.6 MB).
	histBytes := int(2 * (numBins + 2) * 8)
	if total := rec.ExactLen()*8 + histBytes; total >= 200000*8/2 {
		t.Fatalf("recorder retains ~%d bytes, want < half the old reservoir", total)
	}
	if rec.Count() != 1_000_000 {
		t.Fatalf("count = %d", rec.Count())
	}
}

// TestRecorderSteadyStateZeroAlloc pins that recording (post-prealloc)
// and churn notes never allocate.
func TestRecorderSteadyStateZeroAlloc(t *testing.T) {
	rec := NewRecorder(2, true)
	v := 0.001
	allocs := testing.AllocsPerRun(10000, func() {
		rec.NoteStart()
		rec.Record(v, false)
		rec.NoteEnd()
		v *= 1.0002
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v allocs/op, want 0", allocs)
	}
}

// TestRecorderReserveWindows pins the path real runs take: a recorder
// (the drivers don't know the duration) gets its horizon reserved by
// experiment.Run, after which rotation never allocates and
// already-emitted windows are preserved.
func TestRecorderReserveWindows(t *testing.T) {
	rec := NewRecorder(2, true)
	rec.Record(0.25, false)
	rec.Rotate(2) // one window emitted before the reservation
	rec.ReserveWindows(4200)
	if got := rec.Series().LatencyMean.At(0); math.Abs(got-250) > 1e-9 {
		t.Fatalf("reservation lost emitted window: %v", got)
	}
	allocs := testing.AllocsPerRun(4000, func() {
		rec.Record(0.01, false)
		rec.Rotate(1)
	})
	if allocs != 0 {
		t.Fatalf("post-reserve rotation allocates %v allocs/op, want 0", allocs)
	}
}

// TestRecorderEmptyWindows pins that idle windows emit zero samples
// (not stale data) and keep the axis aligned.
func TestRecorderEmptyWindows(t *testing.T) {
	rec := NewRecorder(2, false)
	rec.Record(0.5, false)
	rec.Rotate(0)
	rec.Rotate(0) // empty window
	s := rec.Series()
	if s.Windows() != 2 {
		t.Fatalf("windows = %d", s.Windows())
	}
	if s.LatencyP95.At(1) != 0 || s.Throughput.At(1) != 0 {
		t.Fatalf("idle window leaked data: p95=%v tput=%v", s.LatencyP95.At(1), s.Throughput.At(1))
	}
	if got := s.LatencyP95.TimeAt(1); got != 2 {
		t.Fatalf("window 2 time = %v, want 2", got)
	}
}

// TestRecorderAddSeries pins the optional-series hook: an added gauge
// and an added differenced counter sample once per window after the
// base series (idle windows included), the series take their slots in
// SeriesNames order, a base or unknown name and a repeated add panic,
// and rotation with added series allocates nothing after
// ReserveWindows.
func TestRecorderAddSeries(t *testing.T) {
	rec := NewRecorder(2, false)
	if rec.Series().Replicas != nil || rec.Series().Retries != nil {
		t.Fatal("optional series present before AddSeries")
	}
	gauge := 1.0
	var cum, last uint64
	rec.AddSeries("replicas", "replicas", func() float64 { return gauge })
	rec.AddSeries("retries", "retries/window", func() float64 {
		d := cum - last
		last = cum
		return float64(d)
	})

	// Window 1: three retries. Window 2: one more, gauge up. Window 3:
	// idle.
	rec.Record(0.010, false)
	cum = 3
	rec.Rotate(0)
	cum, gauge = 4, 3
	rec.Rotate(0)
	rec.Rotate(0)

	s := rec.Series()
	if got := s.Replicas.Values; len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("gauge series = %v, want [1 3 3]", got)
	}
	if got := s.Retries.Values; len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("differenced series = %v, want [3 1 0]", got)
	}
	if s.Retries.Unit != "retries/window" || s.Retries.Interval != 2 || s.Retries.TimeAt(2) != 4 {
		t.Fatalf("added series axis/unit = %q %v %v", s.Retries.Unit, s.Retries.Interval, s.Retries.TimeAt(2))
	}
	if s.ByName("retries") != s.Retries || s.ByName("replicas") != s.Replicas {
		t.Fatal("added series not in their SeriesNames slots")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.ByName("queue_lag_ms") }); allocs != 0 {
		t.Fatalf("ByName allocates %v allocs/op, want 0", allocs)
	}
	if n := len(s.All()); n != len(SeriesNames) {
		t.Fatalf("All() = %d slots, want one per SeriesNames entry (%d)", n, len(SeriesNames))
	}
	if n := len(s.Present()); n != len(baseUnits)+2 {
		t.Fatalf("Present() = %d series, want %d", n, len(baseUnits)+2)
	}

	for _, name := range []string{"latency_p95_ms", "abandoned_sessions", "no_such_series", "replicas"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddSeries(%q) did not panic", name)
				}
			}()
			rec.AddSeries(name, "", func() float64 { return 0 })
		}()
	}

	rec.ReserveWindows(4000)
	allocs := testing.AllocsPerRun(3000, func() {
		rec.Record(0.01, false)
		cum++
		rec.Rotate(1)
	})
	if allocs != 0 {
		t.Fatalf("rotation with added series allocates %v allocs/op, want 0", allocs)
	}
}
