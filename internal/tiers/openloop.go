package tiers

import (
	"vwchar/internal/load"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

// OpenParams configures the open-loop driver: the arrival process plus
// the session-lifecycle knobs.
type OpenParams struct {
	// Arrivals produces session-start times; required, and owned by
	// this driver (arrival processes are stateful).
	Arrivals load.Arrivals
	// SessionMean is the mean session length in interactions
	// (geometric; values <= 1 degenerate to single-page sessions).
	SessionMean float64
	// AbandonAfter ends a session whose response exceeded this SLO;
	// 0 disables abandonment.
	AbandonAfter sim.Time
	// Ramp thins arrivals linearly from zero over this window.
	Ramp sim.Time
}

// OpenParamsFromSpec converts a validated load.Spec into driver
// parameters, building its arrival process.
func OpenParamsFromSpec(s *load.Spec) (OpenParams, error) {
	arr, err := s.Build()
	if err != nil {
		return OpenParams{}, err
	}
	return OpenParams{
		Arrivals:     arr,
		SessionMean:  s.EffectiveSessionMean(),
		AbandonAfter: sim.Seconds(s.AbandonAfterSeconds),
		Ramp:         sim.Seconds(s.RampSeconds),
	}, nil
}

// SessionStats is the open-loop driver's session accounting.
type SessionStats struct {
	// Offered counts arrivals the generator produced (including those
	// thinned away by the ramp); Started counts admitted sessions.
	Offered uint64
	Started uint64
	// Finished sessions ran their full drawn length; Abandoned ones
	// quit after an SLO-violating response.
	Finished  uint64
	Abandoned uint64
	// PeakActive is the maximum concurrent session count observed —
	// the population a closed-loop run would have needed.
	PeakActive int
}

// OpenDriver is the open-loop client generator: sessions arrive on an
// external arrival process, run a geometric number of interactions with
// think time between them, and leave — either done or abandoning after
// a response blew the SLO. Unlike the closed loop, offered load does
// not self-throttle when the system saturates, which is what makes
// flash crowds and bursty traces show real saturation behaviour.
//
// Steady-state scheduling is allocation-free: arrivals re-arm a pooled
// kernel event via AtCall, sessions recycle through a sim.FreeList, and
// the response-time reservoir is reserved up front.
type OpenDriver struct {
	k     *sim.Kernel
	app   *rubis.App
	model rubis.Model
	web   Frontend
	costs rubis.CostParams

	arr load.Arrivals
	// arrive feeds the arrival process; life draws ramp admission and
	// session lengths; behave draws interaction picks and think times.
	// Sessions share the driver streams (the kernel is single-threaded,
	// so draw order is deterministic) instead of paying two lagged-
	// Fibonacci seedings per session the way per-client streams would.
	arrive *rng.Stream
	life   *rng.Stream
	behave *rng.Stream

	sessionMean  float64
	abandonAfter sim.Time
	ramp         sim.Time

	sessFree sim.FreeList[openSession]
	active   int
	nextID   int64

	driverStats
	// Sessions is the session-churn accounting.
	Sessions SessionStats
}

// openSession is the pooled per-session state: identity, the Markov
// position, the remaining-interaction budget, the DB routing state,
// and a reused cost breakdown, threaded as the context argument
// through every callback on its request path.
type openSession struct {
	d         *OpenDriver
	sess      rubis.Session
	state     rubis.Interaction
	remaining int
	sentAt    sim.Time
	rt        Route
	res       rubis.Result
}

// NewOpenDriver builds an open-loop driver over the web tier using
// independent named substreams from src.
func NewOpenDriver(k *sim.Kernel, app *rubis.App, model rubis.Model, web Frontend, costs rubis.CostParams, p OpenParams, src *rng.Source) *OpenDriver {
	d := &OpenDriver{
		k:            k,
		app:          app,
		model:        model,
		web:          web,
		costs:        costs,
		arr:          p.Arrivals,
		arrive:       src.Stream("open-arrive"),
		life:         src.Stream("open-life"),
		behave:       src.Stream("open-behave"),
		sessionMean:  p.SessionMean,
		abandonAfter: p.AbandonAfter,
		ramp:         p.Ramp,
	}
	d.initStats(true)
	return d
}

// Start schedules the first arrival.
func (d *OpenDriver) Start() { d.armArrival() }

// armArrival schedules the next session start; a process that has ended
// (trace ran out) stops the loop.
func (d *OpenDriver) armArrival() {
	t := d.arr.Next(d.k.Now(), d.arrive)
	if t >= sim.MaxTime {
		return
	}
	d.k.AtCall(t, openArrive, d)
}

// openArrive fires at each arrival epoch: admit a session (subject to
// the ramp-in thinning) and re-arm.
func openArrive(arg any) {
	d := arg.(*OpenDriver)
	d.Sessions.Offered++
	now := d.k.Now()
	if now >= d.ramp || sim.Seconds(d.life.Float64()*d.ramp.Sec()) < now {
		d.startSession()
	}
	d.armArrival()
}

// startSession admits one session and issues its first interaction
// immediately (the arrival is the first page hit).
func (d *OpenDriver) startSession() {
	s := d.sessFree.Get()
	id := d.nextID
	d.nextID++
	s.d = d
	s.rt.Reset()
	s.state = d.model.Start()
	s.remaining = d.life.Geometric(d.sessionMean)
	s.sess.UserID = id % d.app.TotalUsers()
	s.sess.ItemID = (id * 7) % d.app.TotalItems()
	s.sess.CategoryID = id % int64(d.app.Config.Categories)
	s.sess.RegionID = id % int64(d.app.Config.Regions)
	s.sess.ToUserID = (id * 13) % d.app.TotalUsers()
	d.Sessions.Started++
	d.rec.NoteStart()
	d.active++
	if d.active > d.Sessions.PeakActive {
		d.Sessions.PeakActive = d.active
	}
	d.issue(s)
}

// openIssue fires when a session's think time elapses.
func openIssue(arg any) {
	s := arg.(*openSession)
	s.d.issue(s)
}

func (d *OpenDriver) issue(s *openSession) {
	s.state = d.model.Next(s.state, d.behave)
	err := d.app.ExecuteInto(&s.res, s.state, &s.sess, d.behave, d.costs)
	if err != nil {
		// Mirror the closed loop: surface the failure in results and
		// keep the session moving rather than papering over it.
		d.Errors++
		d.afterResponse(s, 0, false)
		return
	}
	d.noteInteraction(s.state, s.res.IsWrite)
	s.sentAt = d.k.Now()
	d.observeSent()
	d.web.Dispatch(&s.res, &s.rt, openDone, s)
}

// openDone fires when the response reached the client.
func openDone(arg any) {
	s := arg.(*openSession)
	d := s.d
	if o := s.rt.Outcome; o != OutcomeServed {
		// Abnormal outcome (fault-injection runs only): count it and
		// clear the stamp; the turnaround never enters the latency
		// pipeline.
		d.observeFault(o)
		s.rt.Outcome = OutcomeServed
		d.afterResponse(s, d.k.Now()-s.sentAt, true)
		return
	}
	rt := (d.k.Now() - s.sentAt).Sec()
	d.observe(rt, s.res.IsWrite, int(s.res.Interaction))
	d.afterResponse(s, d.k.Now()-s.sentAt, false)
}

// afterResponse advances the session lifecycle once an interaction
// concluded: leave when the drawn length is exhausted, abandon when the
// response blew the SLO or errored, otherwise think and continue.
func (d *OpenDriver) afterResponse(s *openSession, rt sim.Time, faulted bool) {
	s.remaining--
	if s.remaining <= 0 {
		d.endSession(s, false)
		return
	}
	if faulted {
		// An error page drives the user away like an SLO breach, but it
		// stays out of the abandonment latency histogram: that histogram
		// attributes demand driven away by *slowness* (AnalyzeScaling
		// subtracts it from the SLO-violation count).
		d.endSession(s, true)
		return
	}
	if d.abandonAfter > 0 && rt > d.abandonAfter {
		// The violating response itself is already in the main histogram
		// (it was served, just slowly); the abandonment histogram
		// additionally attributes it as demand driven away.
		d.rec.NoteAbandon(rt.Sec())
		d.endSession(s, true)
		return
	}
	think := d.model.Think(d.behave)
	d.k.AfterCall(sim.Seconds(think), openIssue, s)
}

func (d *OpenDriver) endSession(s *openSession, abandoned bool) {
	if abandoned {
		d.Sessions.Abandoned++
	} else {
		d.Sessions.Finished++
	}
	d.rec.NoteEnd()
	d.active--
	d.sessFree.Put(s)
}

// ActiveSessions reports the current concurrent session count.
func (d *OpenDriver) ActiveSessions() int { return d.active }
