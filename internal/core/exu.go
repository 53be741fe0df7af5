package core

import (
	"fmt"

	"emx/internal/memory"
	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/proc"
	"emx/internal/sim"
	"emx/internal/thread"
)

// exu is the engine-side model of one EMC-Y Execution Unit plus Matching
// Unit: it dispatches packets from the hardware FIFO queue, runs thread
// coroutines, charges cycles to the four accounting buckets, and issues
// packets through the PE's OBU.
//
// Continuation events use the engine's handler lane; per-event context
// (the thread, the packet to inject, the resume payload) is staged on
// the thr or passed through EventArg, so steady-state execution does
// not allocate closures.
type exu struct {
	m  *Machine
	pe packet.PE
	p  *proc.Proc
	st *metrics.PE

	busy         bool
	idleSince    sim.Time // valid when !busy
	restoredSeen uint64   // spill restores already charged

	hApply         sim.Handler
	hInjectApply   sim.Handler
	hInjectResume  sim.Handler
	hResume        sim.Handler
	hStart         sim.Handler
	hRun           sim.Handler
	hDispatch      sim.Handler
	hPushDispatch  sim.Handler
	hInjectSaveDsp sim.Handler
	hHandle        sim.Handler
	hService       sim.Handler
}

func newEXU(m *Machine, pe packet.PE) *exu {
	x := &exu{m: m, pe: pe, p: m.Procs[pe], st: &m.stats[pe], idleSince: 0}
	x.hApply = applyH{x}
	x.hInjectApply = injectApplyH{x}
	x.hInjectResume = injectResumeH{x}
	x.hResume = resumeH{x}
	x.hStart = startH{x}
	x.hRun = runH{x}
	x.hDispatch = dispatchH{x}
	x.hPushDispatch = pushDispatchH{x}
	x.hInjectSaveDsp = injectSaveDispatchH{x}
	x.hHandle = handleH{x}
	x.hService = serviceH{x}
	return x
}

// applyH continues replaying a thread's operation buffer.
type applyH struct{ x *exu }

func (h applyH) OnEvent(arg sim.EventArg) { h.x.apply(arg.Ptr.(*thr)) }

// injectApplyH injects the thread's staged packet, then continues the
// buffer replay (remote writes: the thread does not suspend).
type injectApplyH struct{ x *exu }

func (h injectApplyH) OnEvent(arg sim.EventArg) {
	t := arg.Ptr.(*thr)
	pkt := t.pendingPkt
	t.pendingPkt = nil
	h.x.p.Inject(pkt)
	h.x.apply(t)
}

// injectResumeH injects the thread's staged packet, then resumes the
// coroutine (spawn and sync sends do not suspend).
type injectResumeH struct{ x *exu }

func (h injectResumeH) OnEvent(arg sim.EventArg) {
	t := arg.Ptr.(*thr)
	pkt := t.pendingPkt
	t.pendingPkt = nil
	h.x.p.Inject(pkt)
	h.x.execResume(t)
}

// resumeH resumes the coroutine with its staged payload (local loads).
type resumeH struct{ x *exu }

func (h resumeH) OnEvent(arg sim.EventArg) { h.x.execResume(arg.Ptr.(*thr)) }

// startH begins a freshly invoked thread after frame setup.
type startH struct{ x *exu }

func (h startH) OnEvent(arg sim.EventArg) {
	t := arg.Ptr.(*thr)
	h.x.m.trace(TraceStart, t)
	h.x.execResume(t)
}

// runH continues a suspended thread after the register restore.
type runH struct{ x *exu }

func (h runH) OnEvent(arg sim.EventArg) {
	t := arg.Ptr.(*thr)
	h.x.m.trace(TraceRun, t)
	h.x.execResume(t)
}

// dispatchH pops the next queue packet.
type dispatchH struct{ x *exu }

func (h dispatchH) OnEvent(sim.EventArg) { h.x.dispatch() }

// pushDispatchH requeues an explicitly yielded thread, then dispatches.
type pushDispatchH struct{ x *exu }

func (h pushDispatchH) OnEvent(arg sim.EventArg) {
	h.x.p.PushLocal(thread.Low, arg.Ptr.(*packet.Packet))
	h.x.dispatch()
}

// injectSaveDispatchH sends a read request, charges the register save,
// and dispatches the next thread (the split-phase suspension).
type injectSaveDispatchH struct{ x *exu }

func (h injectSaveDispatchH) OnEvent(arg sim.EventArg) {
	x := h.x
	x.p.Inject(arg.Ptr.(*packet.Packet))
	x.st.Times.Switch += x.m.Cfg.SaveCycles
	x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseSwitch, int64(x.m.Cfg.SaveCycles))
	x.m.Eng.AfterHandler(x.m.Cfg.SaveCycles, x.hDispatch, sim.EventArg{})
}

// handleH interprets a dequeued packet after the Matching Unit delay.
type handleH struct{ x *exu }

func (h handleH) OnEvent(arg sim.EventArg) { h.x.handle(arg.Ptr.(*packet.Packet)) }

// serviceH services a remote-memory request on the EXU (EM-4 mode).
type serviceH struct{ x *exu }

func (h serviceH) OnEvent(arg sim.EventArg) {
	h.x.p.ServiceOnEXU(arg.Ptr.(*packet.Packet))
	h.x.dispatch()
}

// wake is called whenever a packet is pushed to this PE's queue.
func (x *exu) wake() {
	if !x.busy {
		x.dispatch()
	}
}

// dispatch pops the next packet, charges Matching Unit time, and handles
// it. When the queue is empty the EXU goes idle; idle time is attributed
// to communication (exposed latency) when it ends.
//
//emx:hotpath
func (x *exu) dispatch() {
	pkt, _, _, ok := x.p.Queue.Pop()
	if !ok {
		x.busy = false
		x.idleSince = x.m.Eng.Now()
		return
	}
	now := x.m.Eng.Now()
	if !x.busy {
		x.st.Times.Comm += now - x.idleSince
		x.m.obs.Cycle(int64(now), int32(x.pe), obs.PhaseIdle, int64(now-x.idleSince))
		x.busy = true
	}
	x.st.Dispatches++
	x.m.obs.MUDispatch(int64(now), int32(x.pe))
	cost := x.m.Cfg.DispatchCycles
	// Spilled packets are restored from the on-memory buffer by extra MCU
	// traffic; charge it to the dispatch that consumed the restore.
	var spill sim.Time
	if restored := x.p.Queue.Restored; restored > x.restoredSeen {
		spill = sim.Time(restored-x.restoredSeen) * x.p.Config().SpillCycles
		x.restoredSeen = restored
	}
	x.st.Times.Switch += cost + spill
	x.m.obs.Cycle(int64(now), int32(x.pe), obs.PhaseSwitch, int64(cost))
	x.m.obs.Cycle(int64(now), int32(x.pe), obs.PhaseSpill, int64(spill))
	x.m.Eng.AfterHandler(cost+spill, x.hHandle, sim.EventArg{Ptr: pkt})
}

// handle interprets one dequeued packet.
func (x *exu) handle(pkt *packet.Packet) {
	switch pkt.Kind {
	case packet.KindInvoke:
		info := x.m.takeSpawn(pkt.Seq)
		f := x.p.Frames.Alloc(thread.NoFrame, info.name)
		t := &thr{
			m:      x.m,
			pe:     x.pe,
			frame:  f.ID,
			name:   info.name,
			fn:     info.fn,
			resume: make(chan resumeMsg),
		}
		f.State = t
		x.m.allThreads = append(x.m.allThreads, t)
		x.m.live++
		x.m.wg.Add(1)
		go t.main()
		// Frame allocation and argument deposit.
		x.st.Times.Switch += x.m.Cfg.SpawnCycles
		x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseSwitch, int64(x.m.Cfg.SpawnCycles))
		x.m.obs.ThreadName(int32(x.pe), f.ID, info.name)
		t.resumeVal = pkt.Data
		x.m.Eng.AfterHandler(x.m.Cfg.SpawnCycles, x.hStart, sim.EventArg{Ptr: t})

	case packet.KindReadReply:
		t := x.threadOf(pkt.Cont.Frame)
		rw := t.rw
		if rw == nil || t.state != stSuspendedRead {
			x.m.fail(fmt.Errorf("core: PE%d reply for %v, but thread %v is not reading", x.pe, pkt.Cont, t))
			return
		}
		idx := pkt.Addr.Off - rw.base
		if int(idx) >= len(rw.buf) {
			x.m.fail(fmt.Errorf("core: PE%d reply offset %d outside read window of %v", x.pe, idx, t))
			return
		}
		rw.buf[idx] = pkt.Data
		rw.remaining--
		if rw.remaining > 0 {
			// More block words in flight: keep the thread suspended and
			// service the next packet.
			x.dispatch()
			return
		}
		t.rw = nil
		t.resumeVal = rw.buf[0]
		t.resumeVals = rw.buf
		x.resumeThread(t)

	case packet.KindResume:
		t := x.threadOf(pkt.Cont.Frame)
		x.resumeThread(t)

	case packet.KindSync:
		x.m.barrierToken(x.pe, pkt)
		x.dispatch()

	case packet.KindReadReq, packet.KindBlockReadReq, packet.KindWrite:
		// ServiceEXU mode (EM-4): the request steals EXU cycles.
		x.st.Times.Overhead += x.m.Cfg.EXUServiceCycles
		x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseService, int64(x.m.Cfg.EXUServiceCycles))
		x.m.Eng.AfterHandler(x.m.Cfg.EXUServiceCycles, x.hService, sim.EventArg{Ptr: pkt})

	default:
		x.m.fail(fmt.Errorf("core: PE%d cannot handle %v", x.pe, pkt))
	}
}

func (x *exu) threadOf(frame uint32) *thr {
	f := x.p.Frames.Get(frame)
	if f == nil {
		panic(fmt.Sprintf("core: PE%d packet for dead frame %d", x.pe, frame))
	}
	return f.State.(*thr)
}

// resumeThread charges register restore and continues the coroutine with
// the payload staged on t.
func (x *exu) resumeThread(t *thr) {
	x.st.Times.Switch += x.m.Cfg.RestoreCycles
	x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseSwitch, int64(x.m.Cfg.RestoreCycles))
	x.m.Eng.AfterHandler(x.m.Cfg.RestoreCycles, x.hRun, sim.EventArg{Ptr: t})
}

// execResume builds the resume message from the payload staged on t and
// steps the coroutine.
//
//emx:hotpath
func (x *exu) execResume(t *thr) {
	msg := resumeMsg{val: t.resumeVal, vals: t.resumeVals}
	t.resumeVal = 0
	t.resumeVals = nil
	x.exec(t, msg)
}

// exec resumes the coroutine, collects the operations it buffered plus
// the op it yielded on, and starts the engine-side replay.
//
//emx:hotpath
func (x *exu) exec(t *thr, msg resumeMsg) {
	t.final = x.m.step(t, msg)
	if len(t.buf) > 0 {
		x.m.obs.Flush(int64(x.m.Eng.Now()), int32(x.pe), int64(len(t.buf)))
	}
	t.bufIdx = 0
	x.apply(t)
}

// apply replays one buffered operation as one engine event — exactly the
// event the unbuffered path would have scheduled — and chains itself
// until the buffer drains, then performs the yielded op.
//
//emx:hotpath
func (x *exu) apply(t *thr) {
	cfg := &x.m.Cfg
	eng := x.m.Eng
	if t.bufIdx < len(t.buf) {
		op := &t.buf[t.bufIdx]
		t.bufIdx++
		switch op.kind {
		case bufCompute:
			if op.cycles < 0 {
				x.m.fail(fmt.Errorf("core: %v computed negative cycles", t))
				return
			}
			x.st.Times.Compute += op.cycles
			x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseRun, int64(op.cycles))
			eng.AfterHandler(op.cycles, x.hApply, sim.EventArg{Ptr: t})

		case bufWrite:
			x.st.Times.Overhead += cfg.PacketGenCycles
			x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseService, int64(cfg.PacketGenCycles))
			x.st.RemoteWrites++
			t.pendingPkt = &packet.Packet{
				Kind: packet.KindWrite,
				Src:  x.pe,
				Addr: op.addr,
				Data: op.data,
			}
			eng.AfterHandler(cfg.PacketGenCycles, x.hInjectApply, sim.EventArg{Ptr: t})

		case bufLocalStore:
			done := x.p.Mem.Write(eng.Now(), memory.PortEXU, op.off, op.data)
			x.st.Times.Compute += done - eng.Now()
			x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseRun, int64(done-eng.Now()))
			eng.AtHandler(done, x.hApply, sim.EventArg{Ptr: t})
		}
		return
	}

	op := t.final
	t.final = nil
	t.buf = t.buf[:0]
	t.bufIdx = 0
	x.finish(t, op)
}

// finish performs the operation the coroutine suspended on.
//
//emx:hotpath
func (x *exu) finish(t *thr, op any) {
	cfg := &x.m.Cfg
	eng := x.m.Eng
	switch op := op.(type) {
	case opFlush:
		// Buffered ops are applied; resume the coroutine at this time.
		x.exec(t, resumeMsg{})

	case opRead:
		x.issueRead(t, op.addr, 1)

	case opReadBlock:
		if op.n <= 0 {
			x.m.fail(fmt.Errorf("core: %v block read of %d words", t, op.n)) //emx:coldpath aborts the run
			return
		}
		x.issueRead(t, op.addr, op.n)

	case opWriteSync:
		x.st.Times.Overhead += cfg.PacketGenCycles
		x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseService, int64(cfg.PacketGenCycles))
		t.pendingPkt = &packet.Packet{
			Kind: packet.KindSync,
			Src:  x.pe,
			Addr: op.addr,
			Data: op.data,
		}
		eng.AfterHandler(cfg.PacketGenCycles, x.hInjectResume, sim.EventArg{Ptr: t})

	case opSpawn:
		x.st.Times.Overhead += cfg.PacketGenCycles
		x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseService, int64(cfg.PacketGenCycles))
		x.st.Invokes++
		seq := x.m.registerSpawn(op.name, op.fn)
		t.pendingPkt = &packet.Packet{
			Kind: packet.KindInvoke,
			Src:  x.pe,
			Addr: packet.GlobalAddr{PE: op.pe},
			Data: op.arg,
			Seq:  seq,
		}
		eng.AfterHandler(cfg.PacketGenCycles, x.hInjectResume, sim.EventArg{Ptr: t})

	case opWait:
		x.st.Switches[op.kind]++
		x.st.Times.Switch += cfg.SpinCheckCycles + cfg.SaveCycles
		// metrics.SwitchKind and obs.SwitchCause are numerically aligned.
		x.m.obs.Switch(int64(eng.Now()), int32(x.pe), obs.SwitchCause(op.kind), t.frame)
		x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseSwitch, int64(cfg.SpinCheckCycles+cfg.SaveCycles))
		t.state = stBlocked
		x.m.trace(TraceYield, t)
		op.ws.waiters = append(op.ws.waiters, waiter{t: t, cond: op.cond})
		eng.AfterHandler(cfg.SpinCheckCycles+cfg.SaveCycles, x.hDispatch, sim.EventArg{})

	case opYield:
		x.st.Switches[op.kind]++
		x.st.Times.Switch += cfg.SpinCheckCycles + cfg.SaveCycles
		x.m.obs.Switch(int64(eng.Now()), int32(x.pe), obs.SwitchCause(op.kind), t.frame)
		x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseSwitch, int64(cfg.SpinCheckCycles+cfg.SaveCycles))
		t.state = stQueued
		x.m.trace(TraceYield, t)
		eng.AfterHandler(cfg.SpinCheckCycles+cfg.SaveCycles, x.hPushDispatch, sim.EventArg{Ptr: &packet.Packet{
			Kind: packet.KindResume,
			Src:  x.pe,
			Cont: packet.Continuation{PE: x.pe, Frame: t.frame},
		}})

	case opLocalLoad:
		v, done := x.p.Mem.Read(eng.Now(), memory.PortEXU, op.off)
		x.st.Times.Compute += done - eng.Now()
		x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseRun, int64(done-eng.Now()))
		t.resumeVal = v
		eng.AtHandler(done, x.hResume, sim.EventArg{Ptr: t})

	case opDone:
		t.state = stDone
		x.m.trace(TraceEnd, t)
		x.m.live--
		x.p.Frames.Free(t.frame)
		x.dispatch()

	case opPanic:
		t.state = stDone
		x.m.live--
		x.m.fail(fmt.Errorf("core: thread %v panicked: %v", t, op.reason))

	default:
		x.m.fail(fmt.Errorf("core: %v yielded unknown op %T", t, op))
	}
}

// issueRead sends a (block) read request and suspends the thread: packet
// generation is overhead, the register save is switch time, and the
// suspension is counted as a remote-read switch (Figure 9's dominant
// category — exactly one per remote read).
//
//emx:hotpath
func (x *exu) issueRead(t *thr, addr packet.GlobalAddr, n int) {
	cfg := &x.m.Cfg
	x.st.Times.Overhead += cfg.PacketGenCycles
	x.st.RemoteReads += uint64(n)
	x.st.Switches[metrics.SwitchRemoteRead]++
	x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseService, int64(cfg.PacketGenCycles))
	x.m.obs.Switch(int64(x.m.Eng.Now()), int32(x.pe), obs.CauseRemoteRead, t.frame)
	t.rw = &readWait{base: addr.Off, buf: make([]packet.Word, n), remaining: n}
	t.state = stSuspendedRead
	x.m.trace(TraceReadIssue, t)
	kind := packet.KindReadReq
	var block uint32
	if n > 1 {
		kind = packet.KindBlockReadReq
		block = uint32(n)
	}
	pkt := &packet.Packet{
		Kind:  kind,
		Src:   x.pe,
		Addr:  addr,
		Block: block,
		Cont:  packet.Continuation{PE: x.pe, Frame: t.frame},
	}
	x.m.Eng.AfterHandler(cfg.PacketGenCycles, x.hInjectSaveDsp, sim.EventArg{Ptr: pkt})
}

// closeAccounting attributes trailing idle time (after the PE's last
// activity) to communication, so per-PE components sum to the makespan.
func (x *exu) closeAccounting(end sim.Time) {
	if !x.busy && x.idleSince <= end {
		x.st.Times.Comm += end - x.idleSince
		x.m.obs.Cycle(int64(x.idleSince), int32(x.pe), obs.PhaseIdle, int64(end-x.idleSince))
		x.idleSince = end
	}
}
