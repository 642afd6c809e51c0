// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is virtual and measured in nanoseconds from the start of the
// simulation. Events are executed in timestamp order; ties are broken by
// insertion order so that a simulation with a fixed seed is fully
// reproducible across runs and platforms.
//
// The kernel is intentionally single-threaded: determinism matters more
// than parallelism for workload characterization, where an experiment must
// regenerate the exact same trace for a given seed.
//
// # Allocation discipline
//
// Steady-state scheduling performs zero heap allocations. Event structs
// live in a kernel-owned arena and are recycled through a free list; the
// priority queue is a hand-rolled 4-ary min-heap whose (at, seq) keys are
// stored inline in the heap entries, so scheduling never boxes through an
// interface and comparisons never chase an event pointer. AtCall and
// AfterCall take a callback plus a context argument rather than a
// capturing closure, so scheduling allocates nothing per event.
//
// # Event handle lifetime
//
// AtCall and AfterCall return an Event handle (a value, not a
// pointer). The handle stays valid until the event fires, is cancelled and
// collected, or is removed; after that the kernel recycles the slot and
// bumps its generation counter, so a retained stale handle becomes inert:
// Cancel and Reschedule on it are no-ops, Pending reports false. A handle
// can therefore be kept arbitrarily long without corrupting the pool or
// affecting whatever event later reuses the slot — the same handle/pin
// discipline the storage engine's buffer pool uses for frames.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Seconds converts a floating-point number of seconds to a virtual Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Duration converts a time.Duration to a virtual time delta.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Sec reports the time as a floating-point number of seconds.
func (t Time) Sec() float64 { return float64(t) / float64(Second) }

// String renders the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Sec()) }

// Callback is a closure-free event callback: the kernel passes back the
// arg given at scheduling time. Passing a pointer-typed arg does not
// allocate, which is what makes AtCall/AfterCall allocation-free where a
// capturing closure would not be.
type Callback func(arg any)

// event is one pooled event slot in the kernel arena. The (at, seq)
// ordering key is duplicated into the heap entry so that comparisons
// stay inside the heap slice; the slot keeps at for Event.Time and
// Reschedule.
type event struct {
	at   Time
	call Callback
	arg  any
	pos  int32 // heap index, -1 when not queued (firing or free)
	gen  uint32
	dead bool
}

// heapEntry is one node of the 4-ary min-heap: the packed (at, seq)
// comparison key plus the arena index it orders.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Event is a handle to a scheduled callback. The zero value refers to no
// event; all methods on it are inert. Handles are values: copy them
// freely, compare against the zero value to test "no event".
type Event struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Time reports when the event is scheduled to fire, or -1 when the
// handle is stale (the event already fired, was cancelled and collected,
// or was removed).
func (e Event) Time() Time {
	k := e.k
	if k == nil {
		return -1
	}
	ev := &k.arena[e.idx]
	if ev.gen != e.gen {
		return -1
	}
	return ev.at
}

// Pending reports whether the handle still refers to a queued live
// event (not yet fired, not cancelled).
func (e Event) Pending() bool {
	k := e.k
	if k == nil {
		return false
	}
	ev := &k.arena[e.idx]
	return ev.gen == e.gen && ev.pos >= 0 && !ev.dead
}

// Cancel prevents a pending event from firing. Cancellation is lazy: the
// slot stays queued until the run loop reaches it or the kernel compacts
// the queue, but the callback will not run. Cancelling a stale handle —
// the event fired or was already collected — is a no-op, even if the
// slot has since been recycled for an unrelated event.
func (e Event) Cancel() {
	k := e.k
	if k == nil {
		return
	}
	ev := &k.arena[e.idx]
	if ev.gen != e.gen || ev.dead {
		return
	}
	ev.dead = true
	if ev.pos >= 0 {
		k.dead++
		if k.dead > compactMinDead && k.dead*2 > len(k.heap) {
			k.compact()
		}
	}
}

// Reschedule moves a still-pending event to absolute time t, reusing its
// pooled slot (a cancelled-but-uncollected event is revived). It returns
// false when the handle is stale or the event is mid-flight, in which
// case the caller must schedule a fresh event. The moved event is
// ordered as if newly scheduled: it fires after anything else already
// scheduled at t.
func (e Event) Reschedule(t Time) bool {
	k := e.k
	if k == nil {
		return false
	}
	ev := &k.arena[e.idx]
	if ev.gen != e.gen || ev.pos < 0 {
		return false
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: rescheduling at %v before now %v", t, k.now))
	}
	if ev.dead {
		ev.dead = false
		k.dead--
	}
	ev.at = t
	i := ev.pos
	k.heap[i].at = t
	k.heap[i].seq = k.seq
	k.seq++
	k.heapFix(i)
	return true
}

// remove eagerly takes a pending event out of the queue and returns its
// slot to the free list, reporting whether it did. A mid-flight event
// (currently firing) is marked dead instead so the run loop collects it.
func (e Event) remove() bool {
	k := e.k
	if k == nil {
		return false
	}
	ev := &k.arena[e.idx]
	if ev.gen != e.gen {
		return false
	}
	if ev.pos < 0 {
		ev.dead = true
		return false
	}
	if ev.dead {
		k.dead--
	}
	k.heapRemove(ev.pos)
	k.release(e.idx)
	return true
}

// compactMinDead is the queue-size floor below which lazy-cancelled
// events are not worth compacting away.
const compactMinDead = 32

// Kernel is the simulation event loop.
type Kernel struct {
	now   Time
	arena []event
	heap  []heapEntry
	free  []int32 // arena slots ready for reuse
	seq   uint64
	// dead counts lazily-cancelled events still queued.
	dead int
	// firing is the arena index of the event whose callback is running,
	// -1 otherwise; requeueFiring (the Ticker re-arm) targets it.
	firing  int32
	stopped bool
	// processed counts events executed so far (cancelled events excluded).
	processed uint64
}

// NewKernel returns a kernel at virtual time zero with an empty queue.
func NewKernel() *Kernel { return &Kernel{firing: -1} }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of live queued events; lazily-cancelled
// events awaiting collection are not counted.
func (k *Kernel) Pending() int { return len(k.heap) - k.dead }

// Processed reports how many events have been executed.
func (k *Kernel) Processed() uint64 { return k.processed }

// schedule grabs a pooled slot, fills it, and queues it.
func (k *Kernel) schedule(t Time, call Callback, arg any) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.arena = append(k.arena, event{gen: 1})
		idx = int32(len(k.arena) - 1)
	}
	e := &k.arena[idx]
	e.at = t
	e.call = call
	e.arg = arg
	e.dead = false
	k.heapPush(heapEntry{at: t, seq: k.seq, idx: idx})
	k.seq++
	return Event{k: k, idx: idx, gen: e.gen}
}

// release returns an arena slot to the free list, invalidating every
// outstanding handle to it.
func (k *Kernel) release(idx int32) {
	e := &k.arena[idx]
	e.gen++
	e.call = nil
	e.arg = nil
	e.dead = false
	e.pos = -1
	k.free = append(k.free, idx)
}

// AtCall schedules fn(arg) at absolute virtual time t without allocating
// a closure: hot schedulers pass a package-level function plus the model
// object it operates on. Scheduling in the past (t < Now) panics: it
// always indicates a model bug, and silently reordering time would
// corrupt every downstream statistic.
func (k *Kernel) AtCall(t Time, fn Callback, arg any) Event {
	return k.schedule(t, fn, arg)
}

// AfterCall schedules fn(arg) to run d after the current time.
func (k *Kernel) AfterCall(d Time, fn Callback, arg any) Event {
	if d < 0 {
		d = 0
	}
	return k.schedule(k.now+d, fn, arg)
}

// Stop halts the run loop after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in order until the queue is empty, Stop is called,
// or the next event is later than until. The clock is left at the time of
// the last executed event, or advanced to until when the queue drains
// early, so that samplers observing Now see a full window.
func (k *Kernel) Run(until Time) {
	k.stopped = false
	for len(k.heap) > 0 && !k.stopped {
		top := k.heap[0]
		if top.at > until {
			break
		}
		idx := k.heapPopRoot()
		e := &k.arena[idx]
		if e.dead {
			k.dead--
			k.release(idx)
			continue
		}
		k.now = top.at
		k.processed++
		k.fire(idx, e)
	}
	if k.now < until {
		k.now = until
	}
}

// Step executes exactly one non-cancelled event if one exists, returning
// true when an event ran.
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		top := k.heap[0]
		idx := k.heapPopRoot()
		e := &k.arena[idx]
		if e.dead {
			k.dead--
			k.release(idx)
			continue
		}
		k.now = top.at
		k.processed++
		k.fire(idx, e)
		return true
	}
	return false
}

// fire runs a dequeued event's callback and collects the slot, unless
// the callback requeued it in place (the Ticker re-arm path). The
// callback fields are copied out first: scheduling inside the callback
// may grow the arena and move the slot.
func (k *Kernel) fire(idx int32, e *event) {
	call, arg := e.call, e.arg
	prev := k.firing
	k.firing = idx
	call(arg)
	k.firing = prev
	if k.arena[idx].pos < 0 {
		k.release(idx)
	}
}

// requeueFiring re-queues the currently firing event at time t, reusing
// its arena slot and keeping its handles valid. Only meaningful from
// inside an event callback.
func (k *Kernel) requeueFiring(t Time) {
	idx := k.firing
	if idx < 0 {
		panic("sim: requeue outside an event callback")
	}
	e := &k.arena[idx]
	e.at = t
	k.heapPush(heapEntry{at: t, seq: k.seq, idx: idx})
	k.seq++
}

// Every schedules fn at t, t+period, t+2*period, ... until the returned
// Ticker is stopped. fn receives the firing time. Each period the ticker
// re-arms by mutating its pooled event in place rather than scheduling a
// fresh one, so a steady ticker performs zero allocations.
func (k *Kernel) Every(start, period Time, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	tk := &Ticker{k: k, period: period, fn: fn}
	tk.ev = k.AtCall(start, tickerFire, tk)
	return tk
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	k       *Kernel
	period  Time
	fn      func(Time)
	ev      Event
	stopped bool
}

func tickerFire(arg any) {
	t := arg.(*Ticker)
	if t.stopped {
		return
	}
	now := t.k.now
	t.fn(now)
	if !t.stopped {
		t.k.requeueFiring(now + t.period)
	}
}

// Stop cancels future firings and immediately returns the ticker's
// pooled event to the kernel free list (it does not linger in the queue
// until its timestamp). Stopping an already-stopped ticker is a no-op.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.ev.remove()
	t.ev = Event{}
}

// --- intrusive 4-ary min-heap -----------------------------------------
//
// Entries carry their (at, seq) key inline so comparisons never touch
// the arena; the arena's pos field is the back-pointer that makes
// removal and rescheduling O(log n). A 4-ary layout halves the tree
// height of a binary heap: pops do more comparisons per level but far
// fewer cache misses, which is the trade that pays off at the queue
// sizes the tier models sustain.

func (k *Kernel) heapPush(en heapEntry) {
	i := int32(len(k.heap))
	k.heap = append(k.heap, en)
	k.arena[en.idx].pos = i
	k.siftUp(i)
}

// heapPopRoot removes and returns the arena index of the minimum entry.
func (k *Kernel) heapPopRoot() int32 {
	h := k.heap
	idx := h[0].idx
	k.arena[idx].pos = -1
	n := len(h) - 1
	last := h[n]
	k.heap = h[:n]
	if n > 0 {
		k.heap[0] = last
		k.arena[last.idx].pos = 0
		k.siftDown(0)
	}
	return idx
}

// heapRemove deletes the entry at heap position i.
func (k *Kernel) heapRemove(i int32) {
	h := k.heap
	k.arena[h[i].idx].pos = -1
	n := int32(len(h)) - 1
	last := h[n]
	k.heap = h[:n]
	if i < n {
		k.heap[i] = last
		k.arena[last.idx].pos = i
		k.heapFix(i)
	}
}

// heapFix restores heap order after the key at position i changed.
func (k *Kernel) heapFix(i int32) {
	idx := k.heap[i].idx
	k.siftUp(i)
	if k.arena[idx].pos == i {
		k.siftDown(i)
	}
}

func (k *Kernel) siftUp(i int32) {
	h := k.heap
	en := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(en, h[p]) {
			break
		}
		h[i] = h[p]
		k.arena[h[i].idx].pos = i
		i = p
	}
	h[i] = en
	k.arena[en.idx].pos = i
}

func (k *Kernel) siftDown(i int32) {
	h := k.heap
	n := int32(len(h))
	en := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], en) {
			break
		}
		h[i] = h[m]
		k.arena[h[i].idx].pos = i
		i = m
	}
	h[i] = en
	k.arena[en.idx].pos = i
}

// compact rebuilds the heap without its lazily-cancelled entries,
// releasing their slots. Triggered from Cancel once dead events exceed
// half the queue, so the queue never carries more garbage than live
// work; amortized cost per cancelled event is constant.
func (k *Kernel) compact() {
	h := k.heap
	w := int32(0)
	for _, en := range h {
		e := &k.arena[en.idx]
		if e.dead {
			e.pos = -1
			k.release(en.idx)
			continue
		}
		h[w] = en
		e.pos = w
		w++
	}
	k.heap = h[:w]
	for i := (w - 2) >> 2; i >= 0; i-- {
		k.siftDown(i)
	}
	k.dead = 0
}
