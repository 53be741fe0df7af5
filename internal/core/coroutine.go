//go:build go1.23

package core

import (
	"fmt"
	"iter"

	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/sim"
)

// ThreadFn is the body of a simulated thread. It runs as a coroutine: the
// simulation engine resumes it, it performs machine operations through tc
// (each charging simulated cycles and possibly suspending the thread), and
// it owns the EXU exclusively between two such operations.
type ThreadFn func(tc *TC)

// killSentinel is panicked inside coroutines that are stopped after a run
// aborts; it must never escape Machine.
type killSentinel struct{}

// resumeMsg is what the engine hands a coroutine when resuming it.
type resumeMsg struct {
	val  packet.Word   // single-read result or spawn argument
	vals []packet.Word // block-read result
}

// Operations a thread can yield. Each corresponds to one or more
// EMC-Y instructions; the exu translates them into cycle charges and
// packets. Only reads, waits, yields and completion suspend the thread;
// after the others the exu resumes it once the operation's cycles have
// been charged. Where the resume point has a continuation staged in
// t.cont, the exu runs that instead of resuming the coroutine.
type (
	// opCompute charges t.opCycles of user computation.
	opCompute struct{}
	// opCont runs the staged continuation t.cont at once.
	opCont struct{}
	// opWrite sends a remote write of t.opData to t.opAddr.
	opWrite struct{}
	// opLocalStore writes t.opData to local offset t.opOff.
	opLocalStore struct{}
	// opWriteSync sends a barrier token (a KindSync packet) carrying
	// t.opData to t.opAddr. Barrier sends its tokens from the exu; only
	// the coroutine-side reference barrier in the tests yields this.
	opWriteSync struct{}
	// opWait suspends the thread on t.opWS until t.opWaiter is ready.
	opWait struct{}
	// opSpawn sends an invoke packet enabling fn on a (possibly remote) PE.
	opSpawn struct {
		pe   packet.PE
		name string
		arg  packet.Word
		fn   ThreadFn
	}
	// opYield re-queues the thread at the tail of the FIFO (explicit
	// context switch); kind classifies why, for Figure 9.
	opYield struct{ kind metrics.SwitchKind }
	// opLocalLoad reads local offset t.opOff through the EXU/MCU port.
	opLocalLoad struct{}
	// opDone signals normal completion of the thread body.
	opDone struct{}
	// opPanic forwards a workload panic to the machine.
	opPanic struct{ reason any }
)

// contKind names the steps the exu runs at a thread's next resume point
// instead of resuming its coroutine. They read and change only engine
// state, so running them in the engine is exactly what the coroutine
// would have done at that event: no workload code runs between them.
type contKind uint8

const (
	// contNone resumes the coroutine.
	contNone contKind = iota
	// contRead issues the read of one word at t.opAddr.
	contRead
	// contReadBlock issues the block read of t.opN words at t.opAddr.
	contReadBlock
	// contReadPair issues the read of t.opAddr, then contReadSecond.
	contReadPair
	// contReadSecond keeps the first word in t.pairVal and reads
	// t.opAddr2.
	contReadSecond
	// contBarrier runs t.opBar's dissemination rounds: it waits for
	// round t.opN-1's token and sends round t.opN's (see exu.barrier).
	contBarrier
)

// thrState tracks where a thread is in its lifecycle, for diagnostics.
type thrState uint8

const (
	stReady thrState = iota
	stRunning
	stSuspendedRead
	stBlocked // waiting on a WaitSet condition
	stQueued
	stDone
)

func (s thrState) String() string {
	switch s {
	case stReady:
		return "ready"
	case stRunning:
		return "running"
	case stSuspendedRead:
		return "suspended-on-read"
	case stBlocked:
		return "blocked-on-condition"
	case stQueued:
		return "queued"
	case stDone:
		return "done"
	}
	return "?"
}

// readWait tracks a thread's outstanding read. A single-word read has
// no buffer: its reply goes straight to the thread's resumeVal.
type readWait struct {
	base      uint32
	buf       []packet.Word // block reads only
	remaining int           // replies still in flight; 0 when no read is
}

// thr is the engine-side handle of one simulated thread.
type thr struct {
	m     *Machine
	pe    packet.PE
	frame uint32
	name  string
	fn    ThreadFn
	state thrState
	// rw is the outstanding read. A read suspends the thread until its
	// last reply arrives, so a thread has at most one.
	rw readWait

	// The coroutine: next resumes the body until its next yield, stop
	// ends it, yield is the body's side of next, and in is the message
	// the engine hands over on resume.
	next  func() (any, bool)
	stop  func()
	yield func(any) bool
	in    resumeMsg

	// Operands of the yielded ops, staged here so that every op but
	// opSpawn and opPanic is a zero-size value (opYield's one byte
	// boxes without allocating) and the switch does not allocate.
	opCycles sim.Time
	opAddr   packet.GlobalAddr
	opOff    uint32
	opData   packet.Word
	opN      int
	opKind   metrics.SwitchKind
	opWS     *WaitSet
	opWaiter waiter
	opAddr2  packet.GlobalAddr // second read of a pair
	opBar    *Barrier

	// cont is what the exu runs at the next resume point; pairVal holds
	// the first word of a read pair until the second arrives.
	cont    contKind
	pairVal packet.Word

	// Continuation context for the exu's allocation-free event
	// handlers: the resume payload and the packet to inject, staged
	// here instead of in per-event closures.
	resumeVal  packet.Word
	resumeVals []packet.Word
	pendingPkt *packet.Packet
}

func (t *thr) String() string {
	return fmt.Sprintf("PE%d:%s(frame %d, %s)", t.pe, t.name, t.frame, t.state)
}

// newThr creates a thread's handle and its coroutine, which starts
// running fn when the engine first steps it. It lives in this file
// because iter.Pull needs the go1.23 language version that the file's
// build tag grants; go.mod stays at go 1.22.
func newThr(m *Machine, pe packet.PE, frame uint32, name string, fn ThreadFn) *thr {
	t := &thr{m: m, pe: pe, frame: frame, name: name, fn: fn}
	t.next, t.stop = iter.Pull(t.main)
	return t
}

// main is the coroutine body, run through iter.Pull: each value it
// yields is an operation for the engine.
func (t *thr) main(yield func(any) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok {
				return
			}
			// Forward workload panics to the machine, which is waiting
			// in step() for this thread's next operation.
			yield(opPanic{reason: r})
		}
	}()
	t.fn(&TC{t: t, arg: t.in.val})
	yield(opDone{})
}

// yieldOp hands an operation to the engine and suspends until resumed.
// Called only from the coroutine. A false yield means the machine
// stopped the coroutine; the body unwinds with killSentinel.
func (t *thr) yieldOp(op any) resumeMsg {
	if !t.yield(op) {
		panic(killSentinel{})
	}
	return t.in
}

// step resumes thread t with msg and returns its next operation.
// Called only from the engine side; exactly one coroutine runs at a time,
// so workload code never races with the simulator.
func (m *Machine) step(t *thr, msg resumeMsg) any {
	t.in = msg
	op, ok := t.next()
	if !ok {
		panic(fmt.Sprintf("core: %v ended without yielding an operation", t))
	}
	return op
}
