package core

import (
	"fmt"

	"emx/internal/memory"
	"emx/internal/metrics"
	"emx/internal/network"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/proc"
	"emx/internal/sim"
	"emx/internal/thread"
)

// Machine is a simulated EM-X: P EMC-Y processors on a circular Omega
// network, plus the multithreading runtime. Build one with NewMachine,
// seed initial threads with SpawnAt, then call Run.
//
// A Machine is single-use: after Run returns it holds the final state for
// inspection but cannot be run again.
type Machine struct {
	Eng   *sim.Engine
	Cfg   Config
	Net   *network.Network // nil when P == 1
	Procs []*proc.Proc

	exus  []*exu
	stats []metrics.PE
	// free is the machine's packet free list. Every packet comes from
	// it and goes back where it is consumed (see exu.handle and
	// proc.serviceDMA), so a drained run has all of them back.
	free packet.Free

	spawnSeq   uint64
	spawns     map[uint64]spawnInfo
	barriers   []*Barrier
	obs        *obs.Tracer
	live       int // threads created and not yet finished
	allThreads []*thr
	failure    error
	ran        bool
}

type spawnInfo struct {
	name string
	fn   ThreadFn
}

// NewMachine builds a machine from the configuration.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		Eng:    sim.NewEngine(),
		Cfg:    cfg,
		spawns: make(map[uint64]spawnInfo),
	}
	if cfg.P > 1 {
		net, err := network.New(m.Eng, cfg.P)
		if err != nil {
			return nil, err
		}
		m.Net = net
	}
	m.stats = make([]metrics.PE, cfg.P)
	m.Procs = make([]*proc.Proc, cfg.P)
	m.exus = make([]*exu, cfg.P)
	out := m.loopback
	if m.Net != nil {
		out = m.Net.Inject
	}
	for pe := 0; pe < cfg.P; pe++ {
		pe := packet.PE(pe)
		m.Procs[pe] = proc.New(m.Eng, pe, cfg.MemWords, cfg.Proc, &m.stats[pe], &m.free, out)
		m.exus[pe] = newEXU(m, pe)
		m.Procs[pe].SetWake(m.exus[pe].wake)
		if m.Net != nil {
			m.Net.SetDeliver(pe, m.Procs[pe].Deliver)
		}
	}
	return m, nil
}

// SetObs installs the cycle-accounting tracer across every component of
// the machine: engine dispatch, EXU charge sites, packet units, and the
// network. Must be called before Run. The tracer observes only — it
// never charges cycles — so an observed run is cycle-identical to an
// unobserved one. A nil tracer (the default) disables observation.
func (m *Machine) SetObs(t *obs.Tracer) {
	if m.ran {
		panic("core: SetObs after Run")
	}
	if t != nil && t.P() != m.Cfg.P {
		panic(fmt.Sprintf("core: tracer sized for P=%d on a P=%d machine", t.P(), m.Cfg.P))
	}
	m.obs = t
	m.Eng.SetObs(t)
	for _, p := range m.Procs {
		p.SetObs(t)
	}
	if m.Net != nil {
		m.Net.SetObs(t)
	}
}

// trace records a thread lifecycle transition on the obs tracer.
func (m *Machine) trace(k obs.ThreadKind, t *thr) {
	m.obs.Thread(int64(m.Eng.Now()), int32(t.pe), k, t.frame)
}

// loopback takes a packet from a 1-PE machine's OBU, where the SU
// short-circuits everything: it leaves the OBU at time at and reaches
// the IBU HopCycles later, as two engine events.
func (m *Machine) loopback(pkt *packet.Packet, at sim.Time) {
	m.Eng.AtHandler(at, loopOutH{m}, pkt)
}

// loopOutH runs as a loopback packet leaves the OBU.
type loopOutH struct{ m *Machine }

func (h loopOutH) OnEvent(arg any) { h.m.Eng.AfterHandler(network.HopCycles, loopInH(h), arg) }

// loopInH runs as a loopback packet reaches the IBU.
type loopInH struct{ m *Machine }

func (h loopInH) OnEvent(arg any) {
	pkt := arg.(*packet.Packet)
	h.m.Procs[pkt.Dst()].Deliver(pkt)
}

// Mem exposes a PE's local memory for workload setup and verification
// (zero simulated cost; in-simulation accesses go through TC).
func (m *Machine) Mem(pe packet.PE) *memory.Local { return m.Procs[pe].Mem }

// P returns the processor count.
func (m *Machine) P() int { return m.Cfg.P }

// SpawnAt seeds an initial thread on a PE before Run (program load).
func (m *Machine) SpawnAt(pe packet.PE, name string, arg packet.Word, fn ThreadFn) {
	if m.ran {
		panic("core: SpawnAt after Run")
	}
	pkt := m.free.Get()
	*pkt = packet.Packet{
		Kind: packet.KindInvoke,
		Src:  pe,
		Addr: packet.GlobalAddr{PE: pe},
		Data: arg,
		Seq:  m.registerSpawn(name, fn),
	}
	m.Procs[pe].PushLocal(thread.Low, pkt)
}

func (m *Machine) registerSpawn(name string, fn ThreadFn) uint64 {
	m.spawnSeq++
	m.spawns[m.spawnSeq] = spawnInfo{name: name, fn: fn}
	return m.spawnSeq
}

func (m *Machine) takeSpawn(seq uint64) spawnInfo {
	info, ok := m.spawns[seq]
	if !ok {
		panic(fmt.Sprintf("core: invoke packet with unknown spawn token %d", seq))
	}
	delete(m.spawns, seq)
	return info
}

// Run executes the simulation to completion and returns the measurements.
// It fails if any thread panicked or if the machine deadlocked (events
// drained while threads are still suspended).
func (m *Machine) Run() (*metrics.Run, error) {
	if m.ran {
		return nil, fmt.Errorf("core: machine already ran")
	}
	m.ran = true
	var end sim.Time
	if m.Cfg.MaxCycles > 0 {
		if more := m.Eng.RunUntil(m.Cfg.MaxCycles); more && m.failure == nil {
			m.failure = fmt.Errorf("core: simulation exceeded %d cycles (livelock or undersized budget)", m.Cfg.MaxCycles)
		}
		end = m.Eng.Now()
	} else {
		end = m.Eng.Run()
	}
	m.teardown()
	if m.failure != nil {
		return nil, m.failure
	}
	if m.live != 0 {
		return nil, fmt.Errorf("core: deadlock — %d thread(s) never finished: %v",
			m.live, m.stuckThreads())
	}
	return m.collect(end), nil
}

func (m *Machine) stuckThreads() []string {
	var out []string
	for _, t := range m.allThreads {
		if t.state != stDone {
			out = append(out, t.String())
		}
	}
	if len(out) > 8 {
		out = append(out[:8], fmt.Sprintf("... and %d more", len(out)-8))
	}
	return out
}

// teardown stops the coroutines of threads that never finished (after a
// failure, a deadlock or the cycle budget) so their stacks are released.
// Threads that finished were stopped at opDone or opPanic.
func (m *Machine) teardown() {
	// Once the engine has drained (or stopped), no coroutine is running:
	// each unfinished one is suspended in yield or was never started.
	// stop makes a pending yield return false, so the body unwinds with
	// killSentinel; a coroutine never started ends without running.
	for _, t := range m.allThreads {
		if t.state != stDone {
			t.stop()
		}
	}
}

// collect assembles the metrics.Run from per-PE state.
func (m *Machine) collect(end sim.Time) *metrics.Run {
	r := &metrics.Run{
		P:        m.Cfg.P,
		Makespan: end,
		PEs:      make([]metrics.PE, m.Cfg.P),
	}
	for pe := range m.exus {
		m.exus[pe].closeAccounting(end)
		r.PEs[pe] = m.stats[pe]
	}
	if m.Net != nil {
		r.PacketsSent = m.Net.Stats.Sent
		r.PacketsHops = m.Net.Stats.Hops
		r.NetQueueDelay = m.Net.Stats.QueueDelay
	}
	r.SimEvents = m.Eng.Events()
	if m.obs != nil {
		m.obs.Finish(int64(end), r.SimEvents, m.profile(r))
	}
	return r
}

// profile returns each PE's phases and counters for the tracer, from
// the run's own accounting: run is compute, service is overhead, idle
// is communication, and switch time splits into the spill phase (the
// restores dispatch charged, SpillCycles each) and the switch phase.
func (m *Machine) profile(r *metrics.Run) []obs.PEProfile {
	pes := make([]obs.PEProfile, len(r.PEs))
	for i := range r.PEs {
		st := &r.PEs[i]
		spill := sim.Time(m.Procs[i].Queue.Restored) * m.Procs[i].Config().SpillCycles
		pes[i] = obs.PEProfile{
			Phases: [obs.NumPhases]int64{
				obs.PhaseRun:     int64(st.Times.Compute),
				obs.PhaseSwitch:  int64(st.Times.Switch - spill),
				obs.PhaseSpill:   int64(spill),
				obs.PhaseService: int64(st.Times.Overhead),
				obs.PhaseIdle:    int64(st.Times.Comm),
			},
			// metrics.SwitchKind and obs.SwitchCause are numerically
			// aligned, and the arrays have the same length.
			Switches:    st.Switches,
			Dispatches:  st.Dispatches,
			Spills:      st.Spills,
			ServicedDMA: st.ServicedDMA,
			ServicedEXU: st.ServicedEXU,
		}
	}
	return pes
}

// wakeBlocked requeues a thread whose wait condition was satisfied.
func (m *Machine) wakeBlocked(t *thr) {
	m.Procs[t.pe].PushLocal(thread.Low, m.resumePacket(t))
}

// resumePacket returns a KindResume packet for t from the free list.
func (m *Machine) resumePacket(t *thr) *packet.Packet {
	pkt := m.free.Get()
	*pkt = packet.Packet{
		Kind: packet.KindResume,
		Src:  t.pe,
		Cont: packet.Continuation{PE: t.pe, Frame: t.frame},
	}
	return pkt
}

// fail records the first failure and stops the engine.
func (m *Machine) fail(err error) {
	if m.failure == nil {
		m.failure = err
	}
	m.Eng.Stop()
}
