package core

import (
	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/sim"
)

// TC is the thread context handed to workload code — the analogue of the
// EM-X C thread library. Every method charges simulated cycles; Read and
// ReadBlock additionally suspend the thread (split-phase transactions),
// letting the EXU switch to the next ready thread.
//
// TC methods must only be called from the thread's own function; a TC is
// not valid after the function returns.
type TC struct {
	t   *thr
	arg packet.Word
}

// Arg returns the argument word the thread was invoked with.
func (tc *TC) Arg() packet.Word { return tc.arg }

// PE returns the processor this thread runs on.
func (tc *TC) PE() packet.PE { return tc.t.pe }

// P returns the machine's processor count.
func (tc *TC) P() int { return tc.t.m.Cfg.P }

// Name returns the thread's name.
func (tc *TC) Name() string { return tc.t.name }

// sync applies any buffered operations before an observation of machine
// state (clock, memory). When the buffer is empty the engine is already
// blocked in step() at the correct time, so no round-trip is needed —
// the common case stays free.
func (tc *TC) sync() {
	if len(tc.t.buf) > 0 {
		tc.t.yieldOp(opFlush{})
	}
}

// Now returns the current simulated time. The paper's measurements use a
// global clock; so does the simulator.
func (tc *TC) Now() sim.Time {
	// The engine is blocked in step() while workload code runs, so
	// reading the clock is race-free once buffered ops are applied.
	tc.sync()
	return tc.t.m.Eng.Now()
}

// Compute charges cycles of user computation (the thread's run length).
// Buffered: the charge is applied at the next suspension point.
func (tc *TC) Compute(cycles sim.Time) {
	tc.t.buf = append(tc.t.buf, bufOp{kind: bufCompute, cycles: cycles})
}

// Read performs a split-phase remote read of one word. The thread is
// suspended after the request packet is generated; the EXU switches to
// the next ready thread; the reply resumes this thread FIFO-fashion.
func (tc *TC) Read(addr packet.GlobalAddr) packet.Word {
	return tc.t.yieldOp(opRead{addr: addr}).val
}

// ReadBlock reads n consecutive words from a remote PE with a single
// block-read request (one of the EMC-Y's four send instructions). The
// thread suspends until all n reply packets have arrived.
func (tc *TC) ReadBlock(addr packet.GlobalAddr, n int) []packet.Word {
	return tc.t.yieldOp(opReadBlock{addr: addr, n: n}).vals
}

// Write sends a remote write packet. The thread continues immediately:
// remote writes do not suspend the issuing thread. Buffered.
func (tc *TC) Write(addr packet.GlobalAddr, data packet.Word) {
	tc.t.buf = append(tc.t.buf, bufOp{kind: bufWrite, addr: addr, data: data})
}

// Spawn sends an invoke packet that starts fn as a new thread on pe (which
// may be this PE). The new thread receives arg through its TC.
func (tc *TC) Spawn(pe packet.PE, name string, arg packet.Word, fn ThreadFn) {
	tc.t.yieldOp(opSpawn{pe: pe, name: name, arg: arg, fn: fn})
}

// Yield performs an explicit context switch: the thread is re-queued at
// the tail of the FIFO and the EXU dispatches the next packet. kind
// attributes the switch for Figure 9's classification.
func (tc *TC) Yield(kind metrics.SwitchKind) {
	tc.t.yieldOp(opYield{kind: kind})
}

// SpinUntil repeatedly yields (attributed to kind) until cond holds,
// burning EXU cycles on every failed check — busy-wait semantics. The
// runtime's own synchronization (Barrier, WaitUntil) blocks instead;
// SpinUntil exists for workloads that model polling loops explicitly.
func (tc *TC) SpinUntil(kind metrics.SwitchKind, cond func() bool) {
	for !cond() {
		tc.Yield(kind)
	}
}

// LocalLoad reads this PE's own memory through the EXU/MCU port,
// contending with the by-passing DMA.
func (tc *TC) LocalLoad(off uint32) packet.Word {
	return tc.t.yieldOp(opLocalLoad{off: off}).val
}

// LocalStore writes this PE's own memory through the EXU/MCU port.
// Buffered.
func (tc *TC) LocalStore(off uint32, data packet.Word) {
	tc.t.buf = append(tc.t.buf, bufOp{kind: bufLocalStore, off: off, data: data})
}

// PeekLocal reads local memory at zero simulated cost. Workloads use it
// inside compute phases whose cycle cost is charged wholesale via Compute
// with the paper's calibrated run lengths (e.g. 12 cycles per merge-loop
// iteration), so per-word charging would double-count.
func (tc *TC) PeekLocal(off uint32) packet.Word {
	tc.sync()
	return tc.t.m.Mem(tc.t.pe).Peek(off)
}

// PokeLocal writes local memory at zero simulated cost (see PeekLocal).
func (tc *TC) PokeLocal(off uint32, w packet.Word) {
	tc.sync()
	tc.t.m.Mem(tc.t.pe).Poke(off, w)
}

// GlobalClockCycles is the cost the paper attributes to reading the
// global clock during measurement; exposed for instrumentation-fidelity
// experiments.
const GlobalClockCycles sim.Time = 2
