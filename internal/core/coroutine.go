package core

import (
	"fmt"

	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/sim"
)

// ThreadFn is the body of a simulated thread. It runs as a coroutine: the
// simulation engine resumes it, it performs machine operations through tc
// (each charging simulated cycles and possibly suspending the thread), and
// it owns the EXU exclusively between two such operations.
type ThreadFn func(tc *TC)

// errKilled is panicked inside coroutines that are torn down after a run
// aborts; it must never escape Machine.
type killSentinel struct{}

// resumeMsg is what the engine hands a coroutine when scheduling it.
type resumeMsg struct {
	val    packet.Word   // single-read result or spawn argument
	vals   []packet.Word // block-read result
	killed bool
}

// yieldMsg is what a coroutine hands back: the operation it wants the
// machine to perform.
type yieldMsg struct {
	t  *thr
	op any
}

// Operations a thread can yield — the true suspension points. Each
// corresponds to one or more EMC-Y instructions; the exu translates
// them into cycle charges and packets. Non-suspending operations
// (compute, remote write, local store) travel in the thread's
// operation buffer instead (see bufOp).
type (
	// opRead issues a split-phase remote read and suspends.
	opRead struct{ addr packet.GlobalAddr }
	// opReadBlock issues a block read request and suspends until all
	// words arrive.
	opReadBlock struct {
		addr packet.GlobalAddr
		n    int
	}
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
	// opLocalLoad reads the PE's own memory through the EXU/MCU port.
	opLocalLoad struct{ off uint32 }
	// opDone signals normal completion of the thread body.
	opDone struct{}
	// opPanic forwards a workload panic to the machine.
	opPanic struct{ reason any }
	// opFlush carries no operation of its own: it hands control to the
	// engine so the thread's buffered non-suspending operations are
	// applied, then resumes the coroutine at the resulting time. TC
	// yields it before anything that must observe up-to-date state
	// (Now, PeekLocal, PokeLocal) while the buffer is non-empty.
	opFlush struct{}
)

// Buffered non-suspending operations. TC appends these to the thread's
// operation buffer instead of yielding, so the two goroutine handoffs
// per operation happen only at true suspension points. The engine
// replays the buffer one event per op at the next yield, reproducing
// the exact event sequence the unbuffered path would have produced —
// that replay is what keeps results bit-identical.
const (
	bufCompute uint8 = iota
	bufWrite
	bufLocalStore
)

type bufOp struct {
	kind   uint8
	off    uint32            // bufLocalStore
	addr   packet.GlobalAddr // bufWrite
	data   packet.Word       // bufWrite, bufLocalStore
	cycles sim.Time          // bufCompute
}

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

// readWait tracks an outstanding read (single or block) for a thread.
type readWait struct {
	base      uint32
	buf       []packet.Word
	remaining int
}

// thr is the engine-side handle of one simulated thread.
type thr struct {
	m      *Machine
	pe     packet.PE
	frame  uint32
	name   string
	fn     ThreadFn
	resume chan resumeMsg
	state  thrState
	rw     *readWait

	// Operation buffer: non-suspending ops appended by TC between two
	// yields. bufIdx is the engine's replay position; final is the
	// yielded (suspending) op replayed after the buffer drains. The
	// backing array is reused across yields.
	buf    []bufOp
	bufIdx int
	final  any

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

// main is the coroutine body running on its own goroutine.
func (t *thr) main() {
	defer t.m.wg.Done()
	first := <-t.resume
	if first.killed {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok {
				return
			}
			// Forward workload panics to the machine, which is blocked in
			// step() waiting for this thread's yield.
			t.m.yieldCh <- yieldMsg{t: t, op: opPanic{reason: r}}
		}
	}()
	tc := &TC{t: t, arg: first.val}
	t.fn(tc)
	t.m.yieldCh <- yieldMsg{t: t, op: opDone{}}
}

// yieldOp hands an operation to the engine and blocks until resumed.
// Called only from the coroutine goroutine.
func (t *thr) yieldOp(op any) resumeMsg {
	t.m.yieldCh <- yieldMsg{t: t, op: op}
	msg := <-t.resume
	if msg.killed {
		panic(killSentinel{})
	}
	return msg
}

// step resumes thread t with msg and waits for its next operation.
// Called only from the engine side; exactly one coroutine runs at a time,
// so workload code never races with the simulator.
//
// m.cur marks the running coroutine for the duration of the step: it is
// non-nil exactly while workload code executes (the channel handoffs
// order the writes), letting runtime primitives called from workload
// code (WaitSet.Notify) flush the thread's operation buffer first.
func (m *Machine) step(t *thr, msg resumeMsg) any {
	m.cur = t
	t.state = stRunning
	t.resume <- msg
	y := <-m.yieldCh
	m.cur = nil
	if y.t != t {
		panic(fmt.Sprintf("core: yield from %v while stepping %v", y.t, t)) //emx:coldpath
	}
	return y.op
}
