// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a cycle-resolution clock (one cycle = 50 ns on the
// simulated 20 MHz EM-X) and dispatches events in (time, insertion) order,
// which makes every simulation run bit-for-bit reproducible: components
// schedule closures and the engine never reorders same-cycle events.
//
// # Scheduler structure
//
// Almost every event in an EM-X model is scheduled a handful of cycles
// ahead (port hops, dispatch latencies, memory accesses), so a Calendar
// keeps a calendar-queue-style ring of one-cycle buckets for the near
// future and falls back to a binary heap only for far-future items
// (deadlines, long busy-until reservations). A bucket is a linked list
// threaded through one node slab with a free list: the slab grows only
// to the peak number of pending near items, and once it has, scheduling
// does not allocate.
//
// # Handler fast lane
//
// The closure API (At, After) is convenient but each call site allocates
// a closure. Hot components implement Handler and schedule themselves
// with AtHandler/AfterHandler, passing the one pointer they need (a
// packet, a thread) as the event's argument; a pointer stored in an
// interface does not allocate. An event is a handler and that argument,
// 32 bytes. Closures ride the same event, with the func as its argument,
// so both lanes share one ordering domain.
//
// # Attached calendars
//
// The hottest component, the network, keeps its steps on a Calendar of
// its own typed items instead of handlers, attached to the engine with
// Attach. Every item's key draws from the engine's sequence counter, and
// the engine dispatches the earlier head of the two calendars by key, so
// the merge is one ordering domain too.
package sim

import "emx/internal/obs"

// Time is a simulated time stamp measured in processor clock cycles.
type Time int64

// CycleNS is the duration of one simulated cycle in nanoseconds
// (EMC-Y runs at 20 MHz).
const CycleNS = 50

// Seconds converts a cycle count to simulated wall-clock seconds.
func (t Time) Seconds() float64 { return float64(t) * CycleNS * 1e-9 }

// Micros converts a cycle count to simulated microseconds.
func (t Time) Micros() float64 { return float64(t) * CycleNS * 1e-3 }

// Handler is the allocation-free event callback. arg is the value the
// event was scheduled with; a pointer-shaped one (pointer, func,
// channel) is stored without allocating. Implementations are typically
// single-field wrapper structs around a component pointer, so converting
// them to Handler does not allocate either.
type Handler interface {
	OnEvent(arg any)
}

// funcRunner adapts the closure API onto the handler lane.
type funcRunner struct{}

func (funcRunner) OnEvent(arg any) { arg.(func())() }

var runFunc Handler = funcRunner{}

// event is an engine event: a handler and its argument. Its key lives
// in the calendar that holds it.
type event struct {
	h   Handler
	arg any
}

// maxTime is later than any schedulable time.
const maxTime Time = 1<<63 - 1

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is ready to use. Engine is not safe for concurrent use;
// a simulation runs single-threaded. Parallelism lives one level up,
// across independent simulations.
type Engine struct {
	now Time
	seq uint64

	// lane runs the items of the attached calendar, whose head laneHd
	// points at (both nil when none is attached).
	lane   Lane
	laneHd *head

	stopped bool
	// deadline is the latest time the running Run, RunUntil or Step may
	// dispatch at.
	deadline Time
	nEvents  uint64

	// obs, when non-nil, observes every dispatched engine event. The nil
	// default costs one branch per dispatch inside the nil-safe tracer
	// method.
	obs *obs.Tracer

	// q holds the engine's own events.
	q Calendar[event]
}

// SetObs installs an observability tracer notified of every engine event
// dispatch. A nil tracer (the default) disables observation.
func (e *Engine) SetObs(t *obs.Tracer) { e.obs = t }

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of engine events dispatched so far. Items of
// an attached calendar are not engine events and are not counted.
func (e *Engine) Events() uint64 { return e.nEvents }

// Pending returns the number of scheduled, not yet dispatched events and
// attached-calendar items.
func (e *Engine) Pending() int {
	if e.laneHd != nil {
		return e.q.hd.n + e.laneHd.n
	}
	return e.q.hd.n
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it indicates a causality bug in a component model.
func (e *Engine) At(t Time, fn func()) {
	e.AtHandler(t, runFunc, fn)
}

// After schedules fn to run d cycles from now. A negative delay
// schedules in the past and panics like At.
func (e *Engine) After(d Time, fn func()) {
	e.AtHandler(e.now+d, runFunc, fn)
}

// AtHandler schedules h.OnEvent(arg) at absolute time t without
// allocating. Scheduling in the past panics.
func (e *Engine) AtHandler(t Time, h Handler, arg any) {
	e.q.push(e, t, event{h: h, arg: arg})
}

// AfterHandler schedules h.OnEvent(arg) d cycles from now without
// allocating. A negative delay schedules in the past and panics.
func (e *Engine) AfterHandler(d Time, h Handler, arg any) {
	e.AtHandler(e.now+d, h, arg)
}

// Stop makes Run return after the current event completes. Pending events
// are kept, so a stopped engine can be resumed with another Run call.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events until none remain or Stop is called. It returns
// the time of the last dispatched event.
func (e *Engine) Run() Time {
	e.stopped, e.deadline = false, maxTime
	for !e.stopped && e.dispatch() {
	}
	return e.now
}

// RunUntil dispatches events with time <= deadline. If events remain past
// the deadline the clock is left at the deadline and true is returned;
// if the schedule drains the clock stays at the last dispatched event.
func (e *Engine) RunUntil(deadline Time) bool {
	e.stopped, e.deadline = false, deadline
	for !e.stopped {
		if !e.dispatch() {
			if e.Pending() == 0 {
				return false
			}
			e.now = deadline
			return true
		}
	}
	return e.Pending() > 0
}

// Step dispatches exactly one event or attached-calendar item, returning
// false if none remain.
func (e *Engine) Step() bool {
	// Stopped before the item runs, so a lane runs no further item in
	// place (see LaneNext); Run and RunUntil clear it.
	e.stopped, e.deadline = true, maxTime
	return e.dispatch()
}

// LaneNext reports whether the attached calendar's head is the next item
// to dispatch, and if so advances Now to its time. A Lane's Fire calls it
// after each item to run the following ones in place.
func (e *Engine) LaneNext() bool {
	l, own := e.laneHd, &e.q.hd
	if e.stopped || l.n == 0 || l.key.at > e.deadline || own.n > 0 && !l.key.before(own.key) {
		return false
	}
	e.now = l.key.at
	return true
}

// dispatch runs the earliest pending item, the engine's own or the
// attached calendar's, if its time is <= e.deadline, and reports whether
// it ran one. Both calendars cache their head key, so choosing costs
// one comparison.
func (e *Engine) dispatch() bool {
	own := &e.q.hd
	if l := e.laneHd; l != nil && l.n > 0 && (own.n == 0 || l.key.before(own.key)) {
		if l.key.at > e.deadline {
			return false
		}
		e.now = l.key.at
		e.lane.Fire()
		return true
	}
	if own.n == 0 || own.key.at > e.deadline {
		return false
	}
	e.now = own.key.at
	ev := e.q.Pop()
	e.nEvents++
	e.obs.Dispatch(int64(e.now))
	ev.h.OnEvent(ev.arg)
	return true
}
