package core

import (
	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/sim"
)

// TC is the thread context handed to workload code — the analogue of the
// EM-X C thread library. Every method charges simulated cycles; the
// reads (Read, ReadBlock and their Compute-fused forms) additionally
// suspend the thread (split-phase transactions), letting the EXU switch
// to the next ready thread. A method stages its operands on the thread
// and yields one opCode, which the exu performs; a fused form also
// stages the step that follows in t.then.
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

// Now returns the current simulated time. The paper's measurements use a
// global clock; so does the simulator.
func (tc *TC) Now() sim.Time {
	// The engine is blocked in step() while workload code runs, so
	// reading the clock is race-free.
	return tc.t.m.Eng.Now()
}

// Compute charges cycles of user computation (the thread's run length).
func (tc *TC) Compute(cycles sim.Time) {
	tc.t.opCycles = cycles
	tc.t.yieldOp(opCompute)
}

// Read performs a split-phase remote read of one word. The thread is
// suspended after the request packet is generated; the EXU switches to
// the next ready thread; the reply resumes this thread FIFO-fashion.
func (tc *TC) Read(addr packet.GlobalAddr) packet.Word {
	tc.t.opAddr = addr
	tc.t.yieldOp(opRead)
	return tc.t.resumeVal
}

// ReadBlock reads n consecutive words from a remote PE with a single
// block-read request (one of the EMC-Y's four send instructions). The
// thread suspends until all n reply packets have arrived.
func (tc *TC) ReadBlock(addr packet.GlobalAddr, n int) []packet.Word {
	tc.t.opAddr, tc.t.opN = addr, n
	tc.t.yieldOp(opReadBlock)
	return tc.t.takeVals()
}

// ComputeRead is Compute(cycles) followed by Read(addr): the EXU issues
// the read at the event where Compute would have returned, so the
// thread's coroutine is resumed once, by the reply, instead of twice.
// Timing, accounting and events are those of the two calls.
func (tc *TC) ComputeRead(cycles sim.Time, addr packet.GlobalAddr) packet.Word {
	t := tc.t
	t.opCycles, t.opAddr, t.then = cycles, addr, opRead
	t.yieldOp(opCompute)
	return t.resumeVal
}

// ComputeReadBlock is Compute(cycles) followed by ReadBlock(addr, n),
// fused as ComputeRead is.
func (tc *TC) ComputeReadBlock(cycles sim.Time, addr packet.GlobalAddr, n int) []packet.Word {
	t := tc.t
	t.opCycles, t.opAddr, t.opN, t.then = cycles, addr, n, opReadBlock
	t.yieldOp(opCompute)
	return t.takeVals()
}

// ComputeReadPair is Compute(cycles) followed by Read(a) and Read(b):
// the EXU issues the second read at the event where the first would
// have resumed the thread, so the coroutine is resumed once.
func (tc *TC) ComputeReadPair(cycles sim.Time, a, b packet.GlobalAddr) (packet.Word, packet.Word) {
	t := tc.t
	t.opCycles, t.opAddr, t.opAddr2, t.then = cycles, a, b, opReadPair
	t.yieldOp(opCompute)
	return t.pairVal, t.resumeVal
}

// takeVals returns the words of the block read that resumed t.
func (t *thr) takeVals() []packet.Word {
	vals := t.resumeVals
	t.resumeVals = nil
	return vals
}

// Write sends a remote write packet. The thread continues immediately:
// remote writes do not suspend the issuing thread.
func (tc *TC) Write(addr packet.GlobalAddr, data packet.Word) {
	tc.t.opAddr, tc.t.opData = addr, data
	tc.t.yieldOp(opWrite)
}

// Spawn sends an invoke packet that starts fn as a new thread on pe (which
// may be this PE). The new thread receives arg through its TC.
func (tc *TC) Spawn(pe packet.PE, name string, arg packet.Word, fn ThreadFn) {
	t := tc.t
	t.opAddr, t.opData, t.spawn = packet.GlobalAddr{PE: pe}, arg, spawnInfo{name: name, fn: fn}
	t.yieldOp(opSpawn)
}

// Yield performs an explicit context switch: the thread is re-queued at
// the tail of the FIFO and the EXU dispatches the next packet. kind
// attributes the switch for Figure 9's classification.
func (tc *TC) Yield(kind metrics.SwitchKind) {
	tc.t.opKind = kind
	tc.t.yieldOp(opYield)
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
	tc.t.opOff = off
	tc.t.yieldOp(opLocalLoad)
	return tc.t.resumeVal
}

// LocalStore writes this PE's own memory through the EXU/MCU port.
func (tc *TC) LocalStore(off uint32, data packet.Word) {
	tc.t.opOff, tc.t.opData = off, data
	tc.t.yieldOp(opLocalStore)
}

// PeekLocal reads local memory at zero simulated cost. Workloads use it
// inside compute phases whose cycle cost is charged wholesale via Compute
// with the paper's calibrated run lengths (e.g. 12 cycles per merge-loop
// iteration), so per-word charging would double-count.
func (tc *TC) PeekLocal(off uint32) packet.Word {
	return tc.t.m.Mem(tc.t.pe).Peek(off)
}

// PokeLocal writes local memory at zero simulated cost (see PeekLocal).
func (tc *TC) PokeLocal(off uint32, w packet.Word) {
	tc.t.m.Mem(tc.t.pe).Poke(off, w)
}

// GlobalClockCycles is the cost the paper attributes to reading the
// global clock during measurement; exposed for instrumentation-fidelity
// experiments.
const GlobalClockCycles sim.Time = 2
