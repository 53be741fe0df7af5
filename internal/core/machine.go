package core

import (
	"fmt"
	"sync"

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

	exus    []*exu
	stats   []metrics.PE
	yieldCh chan yieldMsg
	wg      sync.WaitGroup

	spawnSeq   uint64
	spawns     map[uint64]spawnInfo
	barriers   []*Barrier
	tracer     func(TraceEvent)
	obs        *obs.Tracer
	live       int // threads created and not yet finished
	allThreads []*thr
	failure    error
	ran        bool

	// cur is the coroutine currently executing workload code (non-nil
	// only while the engine is blocked in step).
	cur *thr

	hDeliverLocal sim.Handler
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
		Eng:     sim.NewEngine(),
		Cfg:     cfg,
		yieldCh: make(chan yieldMsg),
		spawns:  make(map[uint64]spawnInfo),
	}
	m.hDeliverLocal = deliverLocalH{m}
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
	for pe := 0; pe < cfg.P; pe++ {
		pe := packet.PE(pe)
		send := func(pkt *packet.Packet) { m.route(pkt) }
		m.Procs[pe] = proc.New(m.Eng, pe, cfg.MemWords, cfg.Proc, &m.stats[pe], send)
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

// deliverLocalH completes a 1-PE loopback send.
type deliverLocalH struct{ m *Machine }

func (h deliverLocalH) OnEvent(arg sim.EventArg) {
	pkt := arg.Ptr.(*packet.Packet)
	h.m.Procs[pkt.Dst()].Deliver(pkt)
}

// route injects a packet into the network (or loops back on a 1-PE
// machine, where the SU short-circuits everything).
func (m *Machine) route(pkt *packet.Packet) {
	if m.Net != nil {
		m.Net.Send(pkt)
		return
	}
	m.Eng.AfterHandler(network.HopCycles, m.hDeliverLocal, sim.EventArg{Ptr: pkt})
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
	seq := m.registerSpawn(name, fn)
	m.Procs[pe].PushLocal(thread.Low, &packet.Packet{
		Kind: packet.KindInvoke,
		Src:  pe,
		Addr: packet.GlobalAddr{PE: pe},
		Data: arg,
		Seq:  seq,
	})
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

// teardown kills any coroutines still blocked (after a failure or
// deadlock) so their goroutines exit.
func (m *Machine) teardown() {
	// Once the engine has drained (or stopped), every unfinished coroutine
	// is blocked receiving on its resume channel: yields are consumed
	// synchronously by step(), so none can be mid-yield here. Sending the
	// kill message unblocks each one; it panics with killSentinel and
	// exits without touching yieldCh.
	for _, t := range m.allThreads {
		if t.state != stDone {
			t.resume <- resumeMsg{killed: true}
		}
	}
	m.wg.Wait()
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
	m.obs.Finish(int64(end))
	if m.Net != nil {
		r.PacketsSent = m.Net.Stats.Sent
		r.PacketsHops = m.Net.Stats.Hops
		r.NetQueueDelay = m.Net.Stats.QueueDelay
	}
	r.SimEvents = m.Eng.Events()
	return r
}

// wakeBlocked requeues a thread whose wait condition was satisfied.
func (m *Machine) wakeBlocked(t *thr) {
	m.Procs[t.pe].PushLocal(thread.Low, &packet.Packet{
		Kind: packet.KindResume,
		Src:  t.pe,
		Cont: packet.Continuation{PE: t.pe, Frame: t.frame},
	})
}

// fail records the first failure and stops the engine.
func (m *Machine) fail(err error) {
	if m.failure == nil {
		m.failure = err
	}
	m.Eng.Stop()
}
