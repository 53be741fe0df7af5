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
// ahead (port hops, dispatch latencies, memory accesses), so the engine
// keeps a calendar-queue-style ring of one-cycle buckets for the near
// future and falls back to a binary heap only for far-future events
// (deadlines, long busy-until reservations). A bucket is a linked list
// threaded through one node slab with a free list: the slab grows only
// to the peak number of pending near events, and once it has, scheduling
// does not allocate.
//
// # Handler fast lane
//
// The closure API (At, After) is convenient but each call site allocates
// a closure. Hot components implement Handler and schedule themselves
// with AtHandler/AfterHandler, passing context through EventArg — a
// pointer plus an integer, enough for "this packet, this hop" without
// heap traffic. Closures are routed through the same path internally, so
// both lanes share one ordering domain.
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

// EventArg carries a handler's per-event context without allocating:
// one pointer-shaped value and one integer. Components pack whatever
// they need (a packet and a hop count, a thread, a node index).
type EventArg struct {
	// Ptr holds a pointer-shaped value (pointer, func, channel). Storing
	// such values in an interface does not allocate.
	Ptr any
	// N holds a small integer payload (a node index, a count).
	N int64
}

// Handler is the allocation-free event callback. Implementations are
// typically single-field wrapper structs around a component pointer, so
// converting them to Handler does not allocate either.
type Handler interface {
	OnEvent(arg EventArg)
}

// funcRunner adapts the closure API onto the handler lane.
type funcRunner struct{}

func (funcRunner) OnEvent(arg EventArg) { arg.Ptr.(func())() }

var runFunc Handler = funcRunner{}

// event is stored by value in buckets and the heap; it never escapes to
// the Go heap on its own.
type event struct {
	at  Time
	seq uint64
	h   Handler
	arg EventArg
}

const (
	// ringBits sets the near-future window: events within ringSize cycles
	// of the clock go to the bucket ring, everything else to the heap.
	ringBits = 9
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// node is one slab slot: a near-future event and the slab index of the
// next event in its bucket (or of the next free slot). Index 0 is a
// sentinel meaning "none".
type node struct {
	ev   event
	next int32
}

// bucket holds the events of one cycle as a FIFO list of slab indices:
// events appended mid-drain (After(0) chains) go behind the tail and
// keep insertion order. head == 0 means empty.
type bucket struct {
	head, tail int32
}

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is ready to use. Engine is not safe for concurrent use;
// a simulation runs single-threaded. Parallelism lives one level up,
// across independent simulations.
type Engine struct {
	now Time
	seq uint64

	// ring holds near-future events, one bucket per cycle, indexed by
	// at&ringMask. All live events in one bucket share the same time:
	// times ringSize apart cannot be pending simultaneously because the
	// push window is [now, now+ringSize).
	ring      [ringSize]bucket
	nearCount int
	// slab stores the ring's events; free heads the list of released
	// slots. slab[0] is the sentinel, appended on the first push, so the
	// zero Engine needs no constructor.
	slab []node
	free int32
	// cursor is the scan position for the next non-empty bucket. It is
	// lowered by pushes below it and never advanced past the earliest
	// live ring event, so the scan cannot skip the minimum.
	cursor Time

	// heap is the far-future overflow, a binary min-heap on (at, seq).
	// For any time present in both structures the heap events were
	// pushed first (their push window excluded the ring), so the merge
	// dispatches heap events before ring events at equal times.
	heap []event

	stopped bool
	nEvents uint64

	// obs, when non-nil, observes every dispatched event. The nil default
	// costs one branch per dispatch inside the nil-safe tracer method.
	obs *obs.Tracer
}

// SetObs installs an observability tracer notified of every event
// dispatch. A nil tracer (the default) disables observation.
func (e *Engine) SetObs(t *obs.Tracer) { e.obs = t }

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events dispatched so far.
func (e *Engine) Events() uint64 { return e.nEvents }

// Pending returns the number of scheduled, not yet dispatched events.
func (e *Engine) Pending() int { return len(e.heap) + e.nearCount }

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it indicates a causality bug in a component model.
func (e *Engine) At(t Time, fn func()) {
	e.AtHandler(t, runFunc, EventArg{Ptr: fn})
}

// After schedules fn to run d cycles from now. A negative delay panics:
// it indicates a causality bug in a component model.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: After called with negative delay")
	}
	e.AtHandler(e.now+d, runFunc, EventArg{Ptr: fn})
}

// AtHandler schedules h.OnEvent(arg) at absolute time t without
// allocating. Scheduling in the past panics.
func (e *Engine) AtHandler(t Time, h Handler, arg EventArg) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	ev := event{at: t, seq: e.seq, h: h, arg: arg}
	if t-e.now < ringSize {
		n := e.alloc()
		e.slab[n].ev = ev
		b := &e.ring[t&ringMask]
		if b.tail == 0 {
			b.head = n
		} else {
			e.slab[b.tail].next = n
		}
		b.tail = n
		if e.nearCount == 0 || t < e.cursor {
			e.cursor = t
		}
		e.nearCount++
		return
	}
	e.pushHeap(ev)
}

// alloc returns a free slab slot, growing the slab only when none is
// free.
func (e *Engine) alloc() int32 {
	if n := e.free; n != 0 {
		e.free = e.slab[n].next
		e.slab[n].next = 0
		return n
	}
	if len(e.slab) == 0 {
		e.slab = append(e.slab, node{}) // the sentinel
	}
	e.slab = append(e.slab, node{})
	return int32(len(e.slab) - 1)
}

// AfterHandler schedules h.OnEvent(arg) d cycles from now without
// allocating. A negative delay panics.
func (e *Engine) AfterHandler(d Time, h Handler, arg EventArg) {
	if d < 0 {
		panic("sim: AfterHandler called with negative delay")
	}
	e.AtHandler(e.now+d, h, arg)
}

// Stop makes Run return after the current event completes. Pending events
// are kept, so a stopped engine can be resumed with another Run call.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events until none remain or Stop is called. It returns
// the time of the last dispatched event.
func (e *Engine) Run() Time {
	e.stopped = false
	for e.Pending() > 0 && !e.stopped {
		ev := e.pop()
		e.now = ev.at
		e.nEvents++
		e.obs.Dispatch(int64(ev.at))
		ev.h.OnEvent(ev.arg)
	}
	return e.now
}

// RunUntil dispatches events with time <= deadline. If events remain past
// the deadline the clock is left at the deadline and true is returned;
// if the schedule drains the clock stays at the last dispatched event.
func (e *Engine) RunUntil(deadline Time) bool {
	e.stopped = false
	for e.Pending() > 0 && !e.stopped {
		if e.peekTime() > deadline {
			e.now = deadline
			return true
		}
		ev := e.pop()
		e.now = ev.at
		e.nEvents++
		e.obs.Dispatch(int64(ev.at))
		ev.h.OnEvent(ev.arg)
	}
	return e.Pending() > 0
}

// Step dispatches exactly one event, returning false if none remain.
func (e *Engine) Step() bool {
	if e.Pending() == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.nEvents++
	e.obs.Dispatch(int64(ev.at))
	ev.h.OnEvent(ev.arg)
	return true
}

// nextNear advances cursor to the next non-empty bucket and returns its
// time. Caller guarantees nearCount > 0; the scan is bounded by ringSize
// because the earliest live ring event is always within ringSize cycles
// of cursor.
func (e *Engine) nextNear() Time {
	for e.ring[e.cursor&ringMask].head == 0 {
		e.cursor++
	}
	return e.cursor
}

// peekTime returns the time of the next event. Caller guarantees
// Pending() > 0.
func (e *Engine) peekTime() Time {
	if e.nearCount == 0 {
		return e.heap[0].at
	}
	t := e.nextNear()
	if len(e.heap) > 0 && e.heap[0].at < t {
		return e.heap[0].at
	}
	return t
}

// pop removes and returns the next event in (at, seq) order. Caller
// guarantees Pending() > 0.
func (e *Engine) pop() event {
	if e.nearCount == 0 {
		return e.popHeap()
	}
	t := e.nextNear()
	// At equal times the heap events are older insertions (see the heap
	// field comment), so they win ties.
	if len(e.heap) > 0 && e.heap[0].at <= t {
		return e.popHeap()
	}
	b := &e.ring[t&ringMask]
	n := b.head
	nd := &e.slab[n]
	ev := nd.ev
	b.head = nd.next
	if b.head == 0 {
		b.tail = 0
	}
	// Release handler and arg for GC and put the slot on the free list.
	*nd = node{next: e.free}
	e.free = n
	e.nearCount--
	return ev
}

// binary min-heap ordered by (at, seq); seq breaks ties so that events
// scheduled earlier run earlier within a cycle.

func (a event) less(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) pushHeap(ev event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heap[i].less(e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *Engine) popHeap() event {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap[last] = event{} // release handler and arg for GC
	e.heap = e.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && e.heap[l].less(e.heap[small]) {
			small = l
		}
		if r < last && e.heap[r].less(e.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
	return top
}
