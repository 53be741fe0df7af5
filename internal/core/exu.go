package core

import (
	"fmt"

	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/proc"
	"emx/internal/sim"
	"emx/internal/thread"
)

// exu is the engine-side model of one EMC-Y Execution Unit plus Matching
// Unit: it dispatches packets from the hardware FIFO queue, runs thread
// coroutines and the steps staged on them (execResume, perform),
// charges cycles to the four accounting buckets, and issues packets
// through the PE's OBU.
//
// Continuation events use the engine's handler lane; per-event context
// (the packet to inject, the resume payload) is staged on the thr, and
// the event's argument is the thr or packet itself, so steady-state
// execution does not allocate closures.
type exu struct {
	m  *Machine
	pe packet.PE
	p  *proc.Proc
	st *metrics.PE

	busy      bool
	idleSince sim.Time // valid when !busy

	// frames maps this PE's activation-frame IDs to their threads. IDs
	// are the table index: per-PE, monotonic, from 1 (slot 0 is never a
	// frame). A finished thread's slot goes nil, so a packet for a dead
	// frame is caught.
	frames []*thr
}

func newEXU(m *Machine, pe packet.PE) *exu {
	return &exu{m: m, pe: pe, p: m.Procs[pe], st: &m.stats[pe], idleSince: 0, frames: []*thr{nil}}
}

// injectResumeH injects the thread's staged packet, then resumes the
// thread (remote writes, spawn and sync sends do not suspend).
type injectResumeH struct{ x *exu }

func (h injectResumeH) OnEvent(arg any) {
	t := arg.(*thr)
	pkt := t.pendingPkt
	t.pendingPkt = nil
	h.x.p.Inject(pkt)
	h.x.execResume(t)
}

// resumeH resumes the thread with its staged payload after compute and
// local memory access.
type resumeH struct{ x *exu }

func (h resumeH) OnEvent(arg any) { h.x.execResume(arg.(*thr)) }

// startH begins a freshly invoked thread after frame setup.
type startH struct{ x *exu }

func (h startH) OnEvent(arg any) {
	t := arg.(*thr)
	h.x.m.trace(obs.ThreadStart, t)
	h.x.execResume(t)
}

// runH continues a suspended thread after the register restore.
type runH struct{ x *exu }

func (h runH) OnEvent(arg any) {
	t := arg.(*thr)
	h.x.m.trace(obs.ThreadRun, t)
	h.x.execResume(t)
}

// dispatchH pops the next queue packet.
type dispatchH struct{ x *exu }

func (h dispatchH) OnEvent(any) { h.x.dispatch() }

// pushDispatchH requeues an explicitly yielded thread, then dispatches.
type pushDispatchH struct{ x *exu }

func (h pushDispatchH) OnEvent(arg any) {
	h.x.p.PushLocal(thread.Low, arg.(*packet.Packet))
	h.x.dispatch()
}

// injectSaveDispatchH sends a read request, charges the register save,
// and dispatches the next thread (the split-phase suspension).
type injectSaveDispatchH struct{ x *exu }

func (h injectSaveDispatchH) OnEvent(arg any) {
	x := h.x
	x.p.Inject(arg.(*packet.Packet))
	x.st.Times.Switch += x.m.Cfg.SaveCycles
	x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseSwitch, int64(x.m.Cfg.SaveCycles))
	x.m.Eng.AfterHandler(x.m.Cfg.SaveCycles, dispatchH{x}, nil)
}

// handleH interprets a dequeued packet after the Matching Unit delay.
type handleH struct{ x *exu }

func (h handleH) OnEvent(arg any) { h.x.handle(arg.(*packet.Packet)) }

// serviceH services a remote-memory request on the EXU (EM-4 mode).
type serviceH struct{ x *exu }

func (h serviceH) OnEvent(arg any) {
	h.x.p.ServiceOnEXU(arg.(*packet.Packet))
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
func (x *exu) dispatch() {
	restored := x.p.Queue.Restored
	pkt, ok := x.p.Queue.Pop()
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
	cost := x.m.Cfg.DispatchCycles
	// Spilled packets are restored from the on-memory buffer by extra MCU
	// traffic; charge it to the dispatch whose Pop restored them.
	spill := sim.Time(x.p.Queue.Restored-restored) * x.p.Config().SpillCycles
	x.st.Times.Switch += cost + spill
	x.m.obs.Cycle(int64(now), int32(x.pe), obs.PhaseSwitch, int64(cost))
	x.m.obs.Cycle(int64(now), int32(x.pe), obs.PhaseSpill, int64(spill))
	x.m.Eng.AfterHandler(cost+spill, handleH{x}, pkt)
}

// handle interprets one dequeued packet. Replies, resumes, syncs and
// invokes are consumed here and go back to the free list; requests go on
// to ServiceOnEXU, which consumes them as serviceDMA does.
func (x *exu) handle(pkt *packet.Packet) {
	switch pkt.Kind {
	case packet.KindInvoke:
		info := x.m.takeSpawn(pkt.Seq)
		arg := pkt.Data
		x.m.free.Put(pkt)
		frame := uint32(len(x.frames))
		t := newThr(x.m, x.pe, frame, info.name, info.fn)
		x.frames = append(x.frames, t)
		x.m.allThreads = append(x.m.allThreads, t)
		x.m.live++
		// Frame allocation and argument deposit.
		x.st.Times.Switch += x.m.Cfg.SpawnCycles
		x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseSwitch, int64(x.m.Cfg.SpawnCycles))
		x.m.obs.ThreadName(int32(x.pe), frame, info.name)
		t.resumeVal = arg
		x.m.Eng.AfterHandler(x.m.Cfg.SpawnCycles, startH{x}, t)

	case packet.KindReadReply:
		t := x.threadOf(pkt.Cont.Frame)
		rw := &t.rw
		if rw.remaining == 0 || t.state != stSuspendedRead {
			x.m.fail(fmt.Errorf("core: PE%d reply for %v, but thread %v is not reading", x.pe, pkt.Cont, t))
			return
		}
		idx := pkt.Addr.Off - rw.base
		switch {
		case rw.buf == nil && idx == 0:
			t.resumeVal = pkt.Data
		case rw.buf != nil && int(idx) < len(rw.buf):
			rw.buf[idx] = pkt.Data
		default:
			x.m.fail(fmt.Errorf("core: PE%d reply offset %d outside read window of %v", x.pe, idx, t))
			return
		}
		x.m.free.Put(pkt)
		rw.remaining--
		if rw.remaining > 0 {
			// More block words in flight: keep the thread suspended and
			// service the next packet.
			x.dispatch()
			return
		}
		if rw.buf != nil {
			t.resumeVal = rw.buf[0]
			t.resumeVals = rw.buf
		}
		*rw = readWait{}
		x.resumeThread(t)

	case packet.KindResume:
		t := x.threadOf(pkt.Cont.Frame)
		x.m.free.Put(pkt)
		x.resumeThread(t)

	case packet.KindSync:
		x.m.barrierToken(x.pe, pkt)
		x.m.free.Put(pkt)
		x.dispatch()

	case packet.KindReadReq, packet.KindBlockReadReq, packet.KindWrite:
		// ServiceEXU mode (EM-4): the request steals EXU cycles.
		x.st.Times.Overhead += x.m.Cfg.EXUServiceCycles
		x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseService, int64(x.m.Cfg.EXUServiceCycles))
		x.m.Eng.AfterHandler(x.m.Cfg.EXUServiceCycles, serviceH{x}, pkt)

	default:
		x.m.fail(fmt.Errorf("core: PE%d cannot handle %v", x.pe, pkt))
	}
}

func (x *exu) threadOf(frame uint32) *thr {
	if int(frame) >= len(x.frames) || x.frames[frame] == nil {
		panic(fmt.Sprintf("core: PE%d packet for dead frame %d", x.pe, frame))
	}
	return x.frames[frame]
}

// resumeThread charges register restore and continues the coroutine with
// the payload staged on t.
func (x *exu) resumeThread(t *thr) {
	x.st.Times.Switch += x.m.Cfg.RestoreCycles
	x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseSwitch, int64(x.m.Cfg.RestoreCycles))
	x.m.Eng.AfterHandler(x.m.Cfg.RestoreCycles, runH{x}, t)
}

// execResume runs the step staged in t.then if there is one;
// otherwise it resumes the coroutine. Then it performs the operation.
func (x *exu) execResume(t *thr) {
	t.state = stRunning
	op := t.then
	t.then = opResume
	if op == opResume {
		op = x.m.step(t)
	}
	x.perform(t, op)
}

// perform does op for t: an operation the coroutine yielded or a step
// staged in t.then.
func (x *exu) perform(t *thr, op opCode) {
	cfg := &x.m.Cfg
	eng := x.m.Eng
	switch op {
	case opCompute:
		if t.opCycles < 0 {
			x.m.fail(fmt.Errorf("core: %v computed negative cycles", t))
			return
		}
		x.st.Times.Compute += t.opCycles
		x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseRun, int64(t.opCycles))
		eng.AfterHandler(t.opCycles, resumeH{x}, t)

	case opRead:
		x.issueRead(t, t.opAddr, nil)

	case opReadBlock:
		if t.opN <= 0 {
			x.m.fail(fmt.Errorf("core: %v block read of %d words", t, t.opN))
			return
		}
		// The words come back into a fresh slice, which ReadBlock
		// returns to the caller.
		x.issueRead(t, t.opAddr, make([]packet.Word, t.opN))

	case opReadPair:
		t.then = opReadSecond
		x.issueRead(t, t.opAddr, nil)

	case opReadSecond:
		t.pairVal = t.resumeVal
		x.issueRead(t, t.opAddr2, nil)

	case opBarrier:
		x.barrier(t)

	case opWrite:
		x.st.RemoteWrites++
		x.send(t, packet.Packet{
			Kind: packet.KindWrite,
			Src:  x.pe,
			Addr: t.opAddr,
			Data: t.opData,
		})

	case opLocalStore:
		done := x.p.Mem.Write(eng.Now(), t.opOff, t.opData)
		x.st.Times.Compute += done - eng.Now()
		x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseRun, int64(done-eng.Now()))
		eng.AtHandler(done, resumeH{x}, t)

	case opWriteSync:
		x.send(t, packet.Packet{
			Kind: packet.KindSync,
			Src:  x.pe,
			Addr: t.opAddr,
			Data: t.opData,
		})

	case opSpawn:
		x.st.Invokes++
		x.send(t, packet.Packet{
			Kind: packet.KindInvoke,
			Src:  x.pe,
			Addr: t.opAddr,
			Data: t.opData,
			Seq:  x.m.registerSpawn(t.spawn.name, t.spawn.fn),
		})

	case opWait:
		x.block(t, t.opKind, t.opWS, t.opWaiter)

	case opYield:
		x.st.Switches[t.opKind]++
		x.st.Times.Switch += cfg.SpinCheckCycles + cfg.SaveCycles
		x.m.obs.Switch(int64(eng.Now()), int32(x.pe), obs.SwitchCause(t.opKind), t.frame)
		x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseSwitch, int64(cfg.SpinCheckCycles+cfg.SaveCycles))
		t.state = stQueued
		x.m.trace(obs.ThreadYield, t)
		eng.AfterHandler(cfg.SpinCheckCycles+cfg.SaveCycles, pushDispatchH{x}, x.m.resumePacket(t))

	case opLocalLoad:
		v, done := x.p.Mem.Read(eng.Now(), t.opOff)
		x.st.Times.Compute += done - eng.Now()
		x.m.obs.Cycle(int64(eng.Now()), int32(x.pe), obs.PhaseRun, int64(done-eng.Now()))
		t.resumeVal = v
		eng.AtHandler(done, resumeH{x}, t)

	case opDone:
		t.state = stDone
		t.stop()
		x.m.trace(obs.ThreadEnd, t)
		x.m.live--
		x.frames[t.frame] = nil
		x.dispatch()

	case opPanic:
		t.state = stDone
		t.stop()
		x.m.live--
		x.m.fail(fmt.Errorf("core: thread %v panicked: %v", t, t.panicVal))

	default:
		x.m.fail(fmt.Errorf("core: %v yielded unknown op %d", t, op))
	}
}

// barrier runs the dissemination rounds of the last local arrival at
// t.opBar, one step per resume point. Round t.opN-1's token must have
// arrived, or the thread blocks on it (an iteration-sync switch) and
// comes back here when woken; then round t.opN's token is sent, and the
// thread comes back here after its packet generation. After the last
// round the episode completes and the coroutine resumes in the same
// event, as the coroutine-side rounds did.
func (x *exu) barrier(t *thr) {
	b := t.opBar
	l := &b.local[x.pe]
	// Only this thread completes the PE's episodes, so the one in
	// progress is the next.
	want := l.episodes + 1
	if r := t.opN; r > 0 && l.recv[r-1] < want {
		t.then = opBarrier
		x.block(t, metrics.SwitchIterSync, b.waits[x.pe], waiter{ctr: &l.recv[r-1], want: want})
		return
	}
	if r := t.opN; r < len(l.recv) {
		t.opN++
		t.then = opBarrier
		x.send(t, packet.Packet{
			Kind: packet.KindSync,
			Src:  x.pe,
			Addr: packet.GlobalAddr{PE: b.partner(x.pe, r), Off: b.id},
			Data: packet.Word(r),
		})
		return
	}
	t.opBar = nil
	b.complete(x.pe)
	x.execResume(t)
}

// send generates packet p from t (one send instruction, overhead), then
// injects it and resumes t: remote writes, spawns and barrier tokens do
// not suspend the thread.
func (x *exu) send(t *thr, p packet.Packet) {
	gen := x.m.Cfg.PacketGenCycles
	x.st.Times.Overhead += gen
	x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseService, int64(gen))
	pkt := x.m.free.Get()
	*pkt = p
	t.pendingPkt = pkt
	x.m.Eng.AfterHandler(gen, injectResumeH{x}, t)
}

// block suspends t on ws until w is ready: the failed check and the
// register save are switch time, counted as one switch of kind.
func (x *exu) block(t *thr, kind metrics.SwitchKind, ws *WaitSet, w waiter) {
	cfg := &x.m.Cfg
	now := int64(x.m.Eng.Now())
	x.st.Switches[kind]++
	x.st.Times.Switch += cfg.SpinCheckCycles + cfg.SaveCycles
	// metrics.SwitchKind and obs.SwitchCause are numerically aligned.
	x.m.obs.Switch(now, int32(x.pe), obs.SwitchCause(kind), t.frame)
	x.m.obs.Cycle(now, int32(x.pe), obs.PhaseSwitch, int64(cfg.SpinCheckCycles+cfg.SaveCycles))
	t.state = stBlocked
	x.m.trace(obs.ThreadYield, t)
	w.t = t
	ws.waiters = append(ws.waiters, w)
	x.m.Eng.AfterHandler(cfg.SpinCheckCycles+cfg.SaveCycles, dispatchH{x}, nil)
}

// issueRead sends a read request for addr and suspends the thread until
// the reply arrives, or until every word of buf has, for a block read:
// packet generation is overhead, the register save is switch time, and
// the suspension is counted as a remote-read switch (Figure 9's
// dominant category — exactly one per remote read).
func (x *exu) issueRead(t *thr, addr packet.GlobalAddr, buf []packet.Word) {
	cfg := &x.m.Cfg
	n := max(len(buf), 1)
	x.st.Times.Overhead += cfg.PacketGenCycles
	x.st.RemoteReads += uint64(n)
	x.st.Switches[metrics.SwitchRemoteRead]++
	x.m.obs.Cycle(int64(x.m.Eng.Now()), int32(x.pe), obs.PhaseService, int64(cfg.PacketGenCycles))
	x.m.obs.Switch(int64(x.m.Eng.Now()), int32(x.pe), obs.CauseRemoteRead, t.frame)
	t.rw = readWait{base: addr.Off, buf: buf, remaining: n}
	t.state = stSuspendedRead
	x.m.trace(obs.ThreadRead, t)
	kind := packet.KindReadReq
	var block uint32
	if n > 1 {
		kind = packet.KindBlockReadReq
		block = uint32(n)
	}
	pkt := x.m.free.Get()
	*pkt = packet.Packet{
		Kind:  kind,
		Src:   x.pe,
		Addr:  addr,
		Block: block,
		Cont:  packet.Continuation{PE: x.pe, Frame: t.frame},
	}
	x.m.Eng.AfterHandler(cfg.PacketGenCycles, injectSaveDispatchH{x}, pkt)
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
