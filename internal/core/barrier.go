package core

import (
	"fmt"
	"math/bits"

	"emx/internal/metrics"
	"emx/internal/packet"
)

// Barrier is the iteration-synchronization primitive the paper inserts at
// the end of every loop iteration ("we forced loops to execute
// synchronously by inserting a barrier at the end of each iteration").
//
// It is two-level, matching the EM-X software implementation:
//
//  1. Local phase: each of the PE's h participating threads arrives;
//     non-last threads block (suspend to the activation frame and free
//     the EXU) — each block is one iteration-sync switch of Figure 9,
//     so their number grows with the thread count.
//  2. Global phase: the last local thread runs a dissemination barrier
//     over log2(P) rounds of sync packets, blocking between rounds.
//     Imbalance between processors therefore surfaces as idle EXU time,
//     i.e. communication time — as in the paper's measurements.
//
// Sync tokens carry only a round number; cumulative counters make
// episode tagging unnecessary (a PE can run at most one episode ahead).
type Barrier struct {
	m      *Machine
	id     uint32
	name   string
	expect int
	local  []barrierPE
	waits  []*WaitSet // per PE
}

type barrierPE struct {
	arrived  int
	episodes uint64   // completed barrier episodes on this PE
	recv     []uint64 // cumulative sync tokens received, per round
}

// NewBarrier creates a barrier in which threadsPerPE threads on every PE
// participate. Create barriers before Run.
func (m *Machine) NewBarrier(name string, threadsPerPE int) *Barrier {
	if threadsPerPE < 1 {
		panic(fmt.Sprintf("core: barrier %q with %d threads per PE", name, threadsPerPE))
	}
	rounds := 0 // ceil(log2(P)) dissemination rounds
	if m.Cfg.P > 1 {
		rounds = bits.Len(uint(m.Cfg.P - 1))
	}
	b := &Barrier{
		m:      m,
		id:     uint32(len(m.barriers)),
		name:   name,
		expect: threadsPerPE,
		local:  make([]barrierPE, m.Cfg.P),
	}
	b.waits = make([]*WaitSet, m.Cfg.P)
	for pe := range b.local {
		b.local[pe].recv = make([]uint64, rounds)
		b.waits[pe] = m.NewWaitSet()
	}
	m.barriers = append(m.barriers, b)
	return b
}

// Episodes returns how many times the barrier has completed on a PE.
func (b *Barrier) Episodes(pe packet.PE) uint64 { return b.local[pe].episodes }

// barrierToken handles an arriving sync packet (called from the exu).
func (m *Machine) barrierToken(pe packet.PE, pkt *packet.Packet) {
	id := pkt.Addr.Off
	if int(id) >= len(m.barriers) {
		m.fail(fmt.Errorf("core: sync token for unknown barrier %d on PE%d", id, pe))
		return
	}
	b := m.barriers[id]
	round := int(pkt.Data)
	l := &b.local[pe]
	if round < 0 || round >= len(l.recv) {
		m.fail(fmt.Errorf("core: sync token round %d out of range on PE%d", round, pe))
		return
	}
	l.recv[round]++
	b.waits[pe].Notify()
}

// Barrier blocks the calling thread until all participating threads on
// all PEs have arrived. Blocking is attributed to iteration-sync
// switches; the EXU idle time while every local thread waits surfaces as
// communication time.
func (tc *TC) Barrier(b *Barrier) {
	t := tc.t
	l := &b.local[t.pe]
	l.arrived++
	if l.arrived < b.expect {
		// Follower: block until the last local thread completes the
		// episode. One iteration-sync switch per block.
		tc.waitCount(metrics.SwitchIterSync, b.waits[t.pe], &l.episodes, l.episodes+1)
		return
	}
	// Last local thread: the exu runs the global dissemination rounds
	// (exu.barrier) and resumes the thread when the episode is complete.
	l.arrived = 0
	if len(l.recv) == 0 {
		b.complete(t.pe) // one PE: no rounds
		return
	}
	t.opBar, t.opN = b, 0
	t.yieldOp(opBarrier)
}

// partner returns the PE that pe's round-r token goes to.
func (b *Barrier) partner(pe packet.PE, r int) packet.PE {
	return (pe + 1<<uint(r)) % packet.PE(b.m.Cfg.P)
}

// complete ends pe's episode once its last round's token has arrived:
// the followers blocked on it wake.
func (b *Barrier) complete(pe packet.PE) {
	l := &b.local[pe]
	l.episodes++
	b.waits[pe].Notify()
	b.m.stats[pe].SyncsSent += uint64(len(l.recv))
}
