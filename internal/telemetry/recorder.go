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
// WindowSeries field order. Every recorder emits the first eleven,
// the base series; the rest are optional and present only when added
// through AddSeries. The names are shared with the runner's
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

// baseUnits holds the unit of each series every recorder emits, in
// SeriesNames order.
var baseUnits = [...]string{
	"ms", "ms", "ms", "ms",
	"req/s", "requests",
	"sessions/window", "sessions/window",
	"ms", "ms",
	"sessions/window",
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

	// The remaining series are optional: each is nil unless a run
	// layer added it with AddSeries.

	// Replicas is the active web-replica gauge at each window boundary
	// (cluster runs).
	Replicas *timeseries.Series
	// Timeouts/Sheds/Failures count abnormal request outcomes per
	// window; Retries counts guard re-dispatches per window;
	// Availability is served/(served+abnormal) per window (fault and
	// resilience runs).
	Timeouts, Sheds, Failures, Retries, Availability *timeseries.Series
	// Degraded counts requests answered degraded per window (brownout
	// drops and over-bound fast-fails); BrownoutLevel is the overload
	// controller's degradation-level gauge at each boundary; HazardRate
	// is the load-coupled hazard's armed probability mass for the
	// window that just closed (hazard and brownout runs).
	Degraded, BrownoutLevel, HazardRate *timeseries.Series
	// HitRatio is the cache tier's per-window hit fraction and
	// Stampedes its per-window redundant concurrent DB fetches
	// (cache-tier runs).
	HitRatio, Stampedes *timeseries.Series
	// QueueDepth/QueueLag are the write-behind broker's backlog and
	// oldest-entry age gauges at each boundary (queue-tier runs).
	QueueDepth, QueueLag *timeseries.Series
}

// slots lists the address of every series field in SeriesNames order:
// the one place a name is tied to its field.
func (w *WindowSeries) slots() []**timeseries.Series {
	return []**timeseries.Series{
		&w.LatencyMean, &w.LatencyP50, &w.LatencyP95, &w.LatencyP99,
		&w.Throughput, &w.Inflight, &w.Starts, &w.Ends,
		&w.LatencyReadP95, &w.LatencyRWP95, &w.Abandoned, &w.Replicas,
		&w.Timeouts, &w.Sheds, &w.Failures, &w.Retries, &w.Availability,
		&w.Degraded, &w.BrownoutLevel, &w.HazardRate,
		&w.HitRatio, &w.Stampedes, &w.QueueDepth, &w.QueueLag,
	}
}

// All lists the series in SeriesNames order. Optional entries are nil
// unless added; Present filters.
func (w *WindowSeries) All() []*timeseries.Series {
	slots := w.slots()
	out := make([]*timeseries.Series, len(slots))
	for i, p := range slots {
		out[i] = *p
	}
	return out
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
	for i, p := range w.slots() {
		if SeriesNames[i] == name {
			return *p
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
	windowSec float64

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

	// added lists the optional series in the order AddSeries built
	// them, each with the sampler Rotate appends from.
	added []addedSeries

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

type addedSeries struct {
	s      *timeseries.Series
	sample func() float64
}

// NewRecorder builds a recorder with the given window length in
// seconds, emitting the base series. prealloc reserves the exact
// reservoir up front so steady-state recording never allocates — the
// open-loop driver's zero-alloc discipline. ReserveWindows sizes the
// series.
func NewRecorder(windowSec float64, prealloc bool) *Recorder {
	r := &Recorder{windowSec: windowSec, exactCap: DefaultExactCap}
	if prealloc {
		r.exact = make([]float64, 0, r.exactCap)
	}
	r.kind = make([]Hist, MaxKinds)
	for i, p := range r.series.slots()[:len(baseUnits)] {
		*p = r.newSeries(SeriesNames[i], baseUnits[i])
	}
	return r
}

func (r *Recorder) newSeries(name, unit string) *timeseries.Series {
	return &timeseries.Series{Name: name, Unit: unit, Interval: r.windowSec}
}

// AddSeries materializes the optional series name, in unit, and has
// every Rotate append sample() to it after the base series, in the
// order series were added. name must be one of SeriesNames past the
// base series and not yet added; anything else panics. Call before
// ReserveWindows.
func (r *Recorder) AddSeries(name, unit string, sample func() float64) {
	slots := r.series.slots()
	for i := len(baseUnits); i < len(SeriesNames); i++ {
		if SeriesNames[i] != name {
			continue
		}
		if *slots[i] != nil {
			panic("telemetry: series " + name + " added twice")
		}
		s := r.newSeries(name, unit)
		*slots[i] = s
		r.added = append(r.added, addedSeries{s, sample})
		return
	}
	panic("telemetry: " + name + " is not an optional series")
}

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
// by the caller and session churn, then each added series' sampler.
// The window histogram and counters reset for the next window.
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
	for _, a := range r.added {
		a.s.Append(a.sample())
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
// starts.
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
