package telemetry

import (
	"sort"

	"vwchar/internal/timeseries"
)

// DefaultExactCap bounds the exact response-time reservoir a Recorder
// retains beside its run histogram. While total observations fit, the
// run-level quantile is exact (bit-identical to sorting every
// observation — the paper sweep's golden bytes depend on this); beyond
// it the reservoir stops growing and quantiles come from the merged
// histogram within RelativeErrorBound. 32768 float64s is 256 KB — an
// order of magnitude below the 200k-float reservoir it replaces, and
// fixed rather than proportional to run length.
const DefaultExactCap = 32768

// SeriesNames labels the per-window series a Recorder emits, in
// emission order. The names are shared with the runner's
// cross-replication series aggregation.
var SeriesNames = []string{
	"latency_mean_ms",
	"latency_p50_ms",
	"latency_p95_ms",
	"latency_p99_ms",
	"throughput_rps",
	"inflight",
	"sessions_started",
	"sessions_ended",
	"latency_read_p95_ms",
	"latency_rw_p95_ms",
	"abandoned_sessions",
	"replicas",
	"timeouts",
	"sheds",
	"failures",
	"retries",
	"availability",
	"degraded",
	"brownout_level",
	"hazard_rate",
	"cache_hit_ratio",
	"cache_stampedes",
	"queue_depth",
	"queue_lag_ms",
}

// MaxKinds bounds the per-interaction histogram bank (RUBiS has 26
// kinds; the bank is fixed-size so the record path stays a bounds check
// plus an array index).
const MaxKinds = 32

// WindowSeries is the per-window output of a Recorder: one sample per
// collector tick, sharing the resource series' 2-second time axis.
type WindowSeries struct {
	// LatencyMean is the exact mean response time per window (ms);
	// LatencyP50/P95/P99 are histogram quantiles per window (ms).
	LatencyMean, LatencyP50, LatencyP95, LatencyP99 *timeseries.Series
	// Throughput is completed interactions per second within the window.
	Throughput *timeseries.Series
	// Inflight is the number of requests awaiting a response at the
	// window boundary (a gauge, like the collector's memory series).
	Inflight *timeseries.Series
	// Starts and Ends count session churn within the window; all-zero
	// for the closed-loop driver, whose population is fixed.
	Starts, Ends *timeseries.Series
	// LatencyReadP95 and LatencyRWP95 split the window p95 by
	// interaction class (read-only vs read-write), so figures show which
	// class saturates first.
	LatencyReadP95, LatencyRWP95 *timeseries.Series
	// Abandoned counts sessions driven away within the window by an
	// SLO-violating response.
	Abandoned *timeseries.Series
	// Replicas is the active web-replica gauge at each window boundary;
	// nil unless a replica gauge was wired (cluster runs).
	Replicas *timeseries.Series
	// Timeouts/Sheds/Failures count abnormal request outcomes per
	// window; Retries counts guard re-dispatches per window;
	// Availability is served/(served+abnormal) per window. All nil
	// unless fault telemetry was enabled (fault-injection runs).
	Timeouts, Sheds, Failures, Retries, Availability *timeseries.Series
	// Degraded counts requests answered degraded per window (brownout
	// drops and over-bound fast-fails); BrownoutLevel is the overload
	// controller's degradation-level gauge at each boundary; HazardRate
	// is the load-coupled hazard's armed probability mass for the
	// window that just closed. All nil unless degradation telemetry was
	// enabled (hazard/brownout runs).
	Degraded, BrownoutLevel, HazardRate *timeseries.Series
	// HitRatio is the cache tier's per-window hit fraction and
	// Stampedes its per-window redundant concurrent DB fetches; nil
	// unless cache telemetry was enabled (cache-tier runs).
	HitRatio, Stampedes *timeseries.Series
	// QueueDepth/QueueLag are the write-behind broker's backlog and
	// oldest-entry age gauges at each boundary; nil unless queue
	// telemetry was enabled.
	QueueDepth, QueueLag *timeseries.Series
}

// All lists the series in SeriesNames order. Entries may be nil (the
// replica gauge is only present on cluster runs); Present filters.
func (w *WindowSeries) All() []*timeseries.Series {
	return []*timeseries.Series{
		w.LatencyMean, w.LatencyP50, w.LatencyP95, w.LatencyP99,
		w.Throughput, w.Inflight, w.Starts, w.Ends,
		w.LatencyReadP95, w.LatencyRWP95, w.Abandoned, w.Replicas,
		w.Timeouts, w.Sheds, w.Failures, w.Retries, w.Availability,
		w.Degraded, w.BrownoutLevel, w.HazardRate,
		w.HitRatio, w.Stampedes, w.QueueDepth, w.QueueLag,
	}
}

// Present lists the non-nil series in SeriesNames order.
func (w *WindowSeries) Present() []*timeseries.Series {
	all := w.All()
	out := make([]*timeseries.Series, 0, len(all))
	for _, s := range all {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// ByName returns the named series, or nil for an unknown or absent name.
func (w *WindowSeries) ByName(name string) *timeseries.Series {
	for i, s := range w.All() {
		if SeriesNames[i] == name {
			return s
		}
	}
	return nil
}

// Windows reports the number of closed windows.
func (w *WindowSeries) Windows() int { return w.LatencyP95.Len() }

// Recorder accumulates response-time observations and window-local
// counters, closing one window per Rotate call. The caller rotates it
// from the sysstat collector's sampling ticker, which is what aligns
// the emitted series with the resource series sample for sample.
type Recorder struct {
	windowSec  float64
	windowHint int

	// win is the current window's histogram; run is the whole-run
	// merge, recorded in the same pass (one bin computation shared by
	// every increment).
	win, run Hist

	// winClass attributes the window's observations by interaction
	// class: index 0 is read-only, 1 is read-write.
	winClass [2]Hist

	// abandon is the run-level histogram of responses whose latency
	// drove their session away (a subset of run); winAbandons counts
	// them within the current window.
	abandon     Hist
	winAbandons uint64

	// replicaGauge, when wired, samples the active web-replica count at
	// each window boundary into the Replicas series.
	replicaGauge func() int

	// Fault accounting (fault-injection runs only): window-local
	// abnormal-outcome counters, plus the guard's cumulative retry
	// source differenced at each window boundary.
	winTimeouts, winSheds, winFails uint64
	retryFn                         func() uint64
	lastRetries                     uint64

	// Degradation accounting (hazard/brownout runs only): window-local
	// degraded-outcome counter plus the level and hazard-rate gauges
	// sampled at each boundary.
	winDegraded uint64
	levelGauge  func() int
	hazardGauge func() float64

	// Cache/queue accounting (cache-tier runs only): the node's
	// cumulative counters differenced at each boundary, plus backlog
	// gauges.
	cacheFn                            func() (hits, misses, stampedes uint64)
	lastHits, lastMisses, lastStampede uint64
	depthGauge                         func() int
	lagGauge                           func() float64

	// kind is the per-interaction run-level histogram bank, indexed by
	// the dense kind index stamped into every rubis.Result.
	kind []Hist

	// exact is the bounded exact reservoir backing small-count
	// run-level quantiles; sorted tracks whether it is currently in
	// ascending order (Quantile sorts it in place and records resume
	// appending, dirtying it again).
	exact    []float64
	exactCap int
	sorted   bool

	starts, ends uint64

	series WindowSeries
}

// NewRecorder builds a recorder with the given window length in
// seconds and a capacity hint in windows (how many Rotate calls the
// run is expected to make; rotation never allocates while within the
// hint). prealloc reserves the exact reservoir up front so steady-state
// recording never allocates either — the open-loop driver's zero-alloc
// discipline.
func NewRecorder(windowSec float64, windowHint int, prealloc bool) *Recorder {
	r := &Recorder{windowSec: windowSec, windowHint: windowHint, exactCap: DefaultExactCap}
	if prealloc {
		r.exact = make([]float64, 0, r.exactCap)
	}
	r.kind = make([]Hist, MaxKinds)
	r.series = WindowSeries{
		LatencyMean:    r.newSeries(SeriesNames[0], "ms"),
		LatencyP50:     r.newSeries(SeriesNames[1], "ms"),
		LatencyP95:     r.newSeries(SeriesNames[2], "ms"),
		LatencyP99:     r.newSeries(SeriesNames[3], "ms"),
		Throughput:     r.newSeries(SeriesNames[4], "req/s"),
		Inflight:       r.newSeries(SeriesNames[5], "requests"),
		Starts:         r.newSeries(SeriesNames[6], "sessions/window"),
		Ends:           r.newSeries(SeriesNames[7], "sessions/window"),
		LatencyReadP95: r.newSeries(SeriesNames[8], "ms"),
		LatencyRWP95:   r.newSeries(SeriesNames[9], "ms"),
		Abandoned:      r.newSeries(SeriesNames[10], "sessions/window"),
	}
	return r
}

func (r *Recorder) newSeries(name, unit string) *timeseries.Series {
	s := &timeseries.Series{Name: name, Unit: unit, Interval: r.windowSec}
	if r.windowHint > 0 {
		s.Values = make([]float64, 0, r.windowHint)
	}
	return s
}

// SetReplicaGauge wires the active-replica gauge and materializes the
// Replicas series; absent a gauge the series stays nil and consumers
// skip it. Cluster assembly calls this before ReserveWindows.
func (r *Recorder) SetReplicaGauge(fn func() int) {
	r.replicaGauge = fn
	if fn != nil && r.series.Replicas == nil {
		r.series.Replicas = r.newSeries(SeriesNames[11], "replicas")
	}
}

// EnableFaultSeries materializes the per-window fault series
// (timeouts, sheds, failures, retries, availability); absent the call
// they stay nil and consumers skip them, which is what keeps fault
// telemetry out of fault-free runs. retries supplies the guard's
// cumulative retry count (nil for a constant zero). Call before
// ReserveWindows.
func (r *Recorder) EnableFaultSeries(retries func() uint64) {
	r.retryFn = retries
	if r.series.Timeouts == nil {
		r.series.Timeouts = r.newSeries(SeriesNames[12], "requests/window")
		r.series.Sheds = r.newSeries(SeriesNames[13], "requests/window")
		r.series.Failures = r.newSeries(SeriesNames[14], "requests/window")
		r.series.Retries = r.newSeries(SeriesNames[15], "retries/window")
		r.series.Availability = r.newSeries(SeriesNames[16], "fraction")
	}
}

// EnableDegradationSeries materializes the per-window degradation
// series (degraded count, brownout level, hazard rate); absent the
// call they stay nil and consumers skip them. level and hazardRate
// supply the controller/hazard gauges sampled at each boundary (nil
// samples as zero; the hazard rate reflects the window that closed at
// the previous boundary, since gauges sample before the hazard's own
// hook runs). Call before ReserveWindows.
func (r *Recorder) EnableDegradationSeries(level func() int, hazardRate func() float64) {
	r.levelGauge = level
	r.hazardGauge = hazardRate
	if r.series.Degraded == nil {
		r.series.Degraded = r.newSeries(SeriesNames[17], "requests/window")
		r.series.BrownoutLevel = r.newSeries(SeriesNames[18], "level")
		r.series.HazardRate = r.newSeries(SeriesNames[19], "crashes/window")
	}
}

// EnableCacheSeries materializes the per-window cache series (hit
// ratio, stampede count); stats supplies the cache node's cumulative
// web-visible hits/misses and redundant stampede fetches, differenced
// at each boundary. Call before ReserveWindows.
func (r *Recorder) EnableCacheSeries(stats func() (hits, misses, stampedes uint64)) {
	r.cacheFn = stats
	if r.series.HitRatio == nil {
		r.series.HitRatio = r.newSeries(SeriesNames[20], "fraction")
		r.series.Stampedes = r.newSeries(SeriesNames[21], "fetches/window")
	}
}

// EnableQueueSeries materializes the per-window queue series (backlog
// depth and oldest-entry lag gauges at each boundary). Call before
// ReserveWindows.
func (r *Recorder) EnableQueueSeries(depth func() int, lagMs func() float64) {
	r.depthGauge = depth
	r.lagGauge = lagMs
	if r.series.QueueDepth == nil {
		r.series.QueueDepth = r.newSeries(SeriesNames[22], "writes")
		r.series.QueueLag = r.newSeries(SeriesNames[23], "ms")
	}
}

// NoteTimeout tallies one timed-out request in the current window.
func (r *Recorder) NoteTimeout() { r.winTimeouts++ }

// NoteShed tallies one breaker-shed request in the current window.
func (r *Recorder) NoteShed() { r.winSheds++ }

// NoteFailure tallies one errored request in the current window.
func (r *Recorder) NoteFailure() { r.winFails++ }

// NoteDegraded tallies one degraded-answered request in the current
// window.
func (r *Recorder) NoteDegraded() { r.winDegraded++ }

// Record adds one response-time observation in seconds, attributed to
// its interaction class (isWrite selects read-write). Allocation-free
// once the reservoir is at capacity (or was preallocated).
func (r *Recorder) Record(rt float64, isWrite bool) {
	r.RecordKind(rt, isWrite, -1)
}

// RecordKind is Record with per-interaction attribution: kind is the
// dense rubis kind index (out-of-range skips the bank, so callers
// without attribution pass -1). Still one logarithm per observation and
// allocation-free — the bank is fixed at construction.
func (r *Recorder) RecordKind(rt float64, isWrite bool, kind int) {
	i := binIndex(rt)
	r.win.recordAt(rt, i)
	r.run.recordAt(rt, i)
	cls := 0
	if isWrite {
		cls = 1
	}
	r.winClass[cls].recordAt(rt, i)
	if kind >= 0 && kind < len(r.kind) {
		r.kind[kind].recordAt(rt, i)
	}
	if len(r.exact) < r.exactCap {
		r.exact = append(r.exact, rt)
		r.sorted = false
	}
}

// NoteAbandon records the response time (seconds) that drove a session
// away. The observation is already in the main histograms via Record;
// this attributes it to demand lost rather than served.
func (r *Recorder) NoteAbandon(rt float64) {
	r.abandon.Record(rt)
	r.winAbandons++
}

// recordAt is Record with the bin precomputed, so the recorder pays
// one logarithm per observation for its two histograms.
func (h *Hist) recordAt(v float64, i int) {
	if h.n == 0 {
		h.min, h.max = v, v
		h.lo, h.hi = i, i
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
		if i < h.lo {
			h.lo = i
		}
		if i > h.hi {
			h.hi = i
		}
	}
	h.n++
	h.sum += v
	h.counts[i]++
}

// NoteStart tallies one session admitted in the current window.
func (r *Recorder) NoteStart() { r.starts++ }

// NoteEnd tallies one session ended (finished or abandoned) in the
// current window.
func (r *Recorder) NoteEnd() { r.ends++ }

// Rotate closes the current window, appending one sample to every
// series: window latency stats, throughput, the inflight gauge passed
// by the caller, and session churn. The window histogram and counters
// reset for the next window.
func (r *Recorder) Rotate(inflight int) {
	w := &r.win
	r.series.LatencyMean.Append(w.Mean() * 1e3)
	r.series.LatencyP50.Append(w.Quantile(0.50) * 1e3)
	r.series.LatencyP95.Append(w.Quantile(0.95) * 1e3)
	r.series.LatencyP99.Append(w.Quantile(0.99) * 1e3)
	r.series.Throughput.Append(float64(w.Count()) / r.windowSec)
	r.series.Inflight.Append(float64(inflight))
	r.series.Starts.Append(float64(r.starts))
	r.series.Ends.Append(float64(r.ends))
	r.series.LatencyReadP95.Append(r.winClass[0].Quantile(0.95) * 1e3)
	r.series.LatencyRWP95.Append(r.winClass[1].Quantile(0.95) * 1e3)
	r.series.Abandoned.Append(float64(r.winAbandons))
	if r.series.Replicas != nil {
		r.series.Replicas.Append(float64(r.replicaGauge()))
	}
	if r.series.Timeouts != nil {
		r.series.Timeouts.Append(float64(r.winTimeouts))
		r.series.Sheds.Append(float64(r.winSheds))
		r.series.Failures.Append(float64(r.winFails))
		var retries uint64
		if r.retryFn != nil {
			cum := r.retryFn()
			retries = cum - r.lastRetries
			r.lastRetries = cum
		}
		r.series.Retries.Append(float64(retries))
		served := float64(w.Count())
		faulted := float64(r.winTimeouts + r.winSheds + r.winFails)
		avail := 1.0
		if served+faulted > 0 {
			avail = served / (served + faulted)
		}
		r.series.Availability.Append(avail)
		r.winTimeouts, r.winSheds, r.winFails = 0, 0, 0
	}
	if r.series.Degraded != nil {
		// Degraded answers are deliberate fast responses, so they count
		// in their own series, not against availability.
		r.series.Degraded.Append(float64(r.winDegraded))
		lvl := 0
		if r.levelGauge != nil {
			lvl = r.levelGauge()
		}
		r.series.BrownoutLevel.Append(float64(lvl))
		hz := 0.0
		if r.hazardGauge != nil {
			hz = r.hazardGauge()
		}
		r.series.HazardRate.Append(hz)
		r.winDegraded = 0
	}
	if r.series.HitRatio != nil {
		var dh, dm, ds uint64
		if r.cacheFn != nil {
			hits, misses, stampedes := r.cacheFn()
			dh = hits - r.lastHits
			dm = misses - r.lastMisses
			ds = stampedes - r.lastStampede
			r.lastHits, r.lastMisses, r.lastStampede = hits, misses, stampedes
		}
		ratio := 0.0
		if dh+dm > 0 {
			ratio = float64(dh) / float64(dh+dm)
		}
		r.series.HitRatio.Append(ratio)
		r.series.Stampedes.Append(float64(ds))
	}
	if r.series.QueueDepth != nil {
		d, lag := 0, 0.0
		if r.depthGauge != nil {
			d = r.depthGauge()
		}
		if r.lagGauge != nil {
			lag = r.lagGauge()
		}
		r.series.QueueDepth.Append(float64(d))
		r.series.QueueLag.Append(lag)
	}
	w.Reset()
	r.winClass[0].Reset()
	r.winClass[1].Reset()
	r.starts, r.ends = 0, 0
	r.winAbandons = 0
}

// ReserveWindows grows every series' capacity to hold n windows, so
// rotation within that horizon never allocates. experiment.Run calls
// it with the run's duration-derived window count before the kernel
// starts; the capacity hint at construction covers callers that know
// the horizon up front.
func (r *Recorder) ReserveWindows(n int) {
	for _, s := range r.series.Present() {
		if cap(s.Values)-len(s.Values) < n {
			grown := make([]float64, len(s.Values), len(s.Values)+n)
			copy(grown, s.Values)
			s.Values = grown
		}
	}
}

// Series exposes the emitted per-window series.
func (r *Recorder) Series() *WindowSeries { return &r.series }

// Count reports total observations recorded.
func (r *Recorder) Count() uint64 { return r.run.Count() }

// Mean reports the exact run-level mean response time in seconds.
func (r *Recorder) Mean() float64 { return r.run.Mean() }

// Quantile reports the run-level q-quantile in seconds. While every
// observation still fits the exact reservoir it reproduces the
// sort-and-index quantile of the reservoir it replaced bit for bit
// (rank floor(q*(n-1)), no interpolation), sorting in place at most
// once per batch of records; beyond the cap it falls back to the
// merged run histogram, within RelativeErrorBound.
func (r *Recorder) Quantile(q float64) float64 {
	n := r.run.Count()
	if n == 0 {
		return 0
	}
	if n > uint64(len(r.exact)) {
		return r.run.Quantile(q)
	}
	if !r.sorted {
		sort.Float64s(r.exact)
		r.sorted = true
	}
	if q <= 0 {
		return r.exact[0]
	}
	if q >= 1 {
		return r.exact[len(r.exact)-1]
	}
	return r.exact[int(q*float64(len(r.exact)-1))]
}

// ExactLen reports how many observations the exact reservoir holds —
// the memory-regression tests pin that it never exceeds DefaultExactCap.
func (r *Recorder) ExactLen() int { return len(r.exact) }

// RunHist exposes the run-level histogram over every served response.
func (r *Recorder) RunHist() *Hist { return &r.run }

// AbandonedHist exposes the run-level histogram of responses that
// drove their session away — the "driven away" half of SLO-debt
// accounting (RunHist minus this is demand served, however slowly).
func (r *Recorder) AbandonedHist() *Hist { return &r.abandon }

// KindHist exposes the run-level histogram for one dense interaction
// kind index, or nil when out of range.
func (r *Recorder) KindHist(kind int) *Hist {
	if kind < 0 || kind >= len(r.kind) {
		return nil
	}
	return &r.kind[kind]
}
