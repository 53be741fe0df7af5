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

// opCode names what the exu does for a thread. A thread yields one for
// each of its operations, each one or more EMC-Y instructions; the exu
// translates it into cycle charges and packets (exu.perform). Operands
// are staged on the thr, so the coroutine yields a plain integer. Only
// reads, waits, yields and completion suspend the thread; after the
// others the exu resumes it once the operation's cycles have been
// charged.
//
// The same codes name the steps the exu runs at a thread's next resume
// point in place of its coroutine, held in t.then: the read after a
// ComputeRead*, a pair's second read and the barrier's rounds. They
// read and change only engine state, so running them in the engine is
// exactly what the coroutine would have done at that event: no workload
// code runs between them.
type opCode uint8

const (
	// opResume, as t.then, resumes the coroutine; it is never yielded.
	opResume opCode = iota
	// opCompute charges t.opCycles of user computation.
	opCompute
	// opRead reads one word at t.opAddr.
	opRead
	// opReadBlock reads t.opN words at t.opAddr with one block read.
	opReadBlock
	// opReadPair reads t.opAddr, then runs opReadSecond.
	opReadPair
	// opReadSecond keeps the first word in t.pairVal and reads
	// t.opAddr2.
	opReadSecond
	// opBarrier runs t.opBar's dissemination rounds: it waits for round
	// t.opN-1's token and sends round t.opN's (see exu.barrier).
	opBarrier
	// opWrite sends a remote write of t.opData to t.opAddr.
	opWrite
	// opLocalStore writes t.opData to local offset t.opOff.
	opLocalStore
	// opWriteSync sends a barrier token (a KindSync packet) carrying
	// t.opData to t.opAddr. Barrier sends its tokens from the exu; only
	// the coroutine-side reference barrier in the tests yields this.
	opWriteSync
	// opWait suspends the thread on t.opWS until t.opWaiter is ready.
	opWait
	// opSpawn sends an invoke packet enabling t.spawn on PE t.opAddr.PE
	// with argument t.opData.
	opSpawn
	// opYield re-queues the thread at the tail of the FIFO (explicit
	// context switch); t.opKind classifies why, for Figure 9.
	opYield
	// opLocalLoad reads local offset t.opOff through the EXU/MCU port.
	opLocalLoad
	// opDone signals normal completion of the thread body.
	opDone
	// opPanic forwards the workload panic t.panicVal to the machine.
	opPanic
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
	// ends it, and yield is the body's side of next.
	next  func() (opCode, bool)
	stop  func()
	yield func(opCode) bool

	// Operands of the yielded ops, staged here so that the switch does
	// not allocate.
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
	spawn    spawnInfo
	panicVal any

	// then is what the exu runs at the next resume point; pairVal holds
	// the first word of a read pair until the second arrives.
	then    opCode
	pairVal packet.Word

	// What the exu hands the thread: the word a read or local load
	// returns (a spawned thread's argument before it starts), the words
	// of a block read, and the packet to inject before the resume,
	// staged here instead of in per-event closures.
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
func (t *thr) main(yield func(opCode) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok {
				return
			}
			// Forward workload panics to the machine, which is waiting
			// in step() for this thread's next operation.
			t.panicVal = r
			yield(opPanic)
		}
	}()
	t.fn(&TC{t: t, arg: t.resumeVal})
	yield(opDone)
}

// yieldOp hands an operation to the engine and suspends until resumed.
// Called only from the coroutine. A false yield means the machine
// stopped the coroutine; the body unwinds with killSentinel.
func (t *thr) yieldOp(op opCode) {
	if !t.yield(op) {
		panic(killSentinel{})
	}
}

// step resumes thread t and returns its next operation. Called only
// from the engine side; exactly one coroutine runs at a time, so
// workload code never races with the simulator.
func (m *Machine) step(t *thr) opCode {
	op, ok := t.next()
	if !ok {
		panic(fmt.Sprintf("core: %v ended without yielding an operation", t))
	}
	return op
}
