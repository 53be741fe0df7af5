// Package metrics defines the measurement vocabulary of the paper's
// evaluation: per-PE decomposition of execution time into computation,
// packet-generation overhead, communication (unoverlapped latency), and
// switching (Figure 8); classified context-switch counts (Figure 9); and
// the overlapping-efficiency metric E = (Tcomm,1 - Tcomm,h)/Tcomm,1
// (Figure 7).
package metrics

import (
	"emx/internal/obs"
	"emx/internal/sim"
)

// SwitchKind classifies why the EXU switched away from / spun on a thread,
// matching the paper's three categories in Figure 9. It is obs.SwitchCause,
// so a run's switch counters and its profile share one enum.
type SwitchKind = obs.SwitchCause

const (
	SwitchRemoteRead = obs.CauseRemoteRead
	SwitchIterSync   = obs.CauseIterSync
	SwitchThreadSync = obs.CauseThreadSync
	SwitchExplicit   = obs.CauseExplicit
	NumSwitchKinds   = obs.NumSwitchCauses
)

// Breakdown decomposes a PE's makespan. The four components are mutually
// exclusive and, with Idle ambiguity resolved as communication wait, sum
// to the PE's total elapsed time (an invariant the tests assert).
type Breakdown struct {
	Compute  sim.Time // EXU running user instructions
	Overhead sim.Time // EXU generating packets (send instructions)
	Switch   sim.Time // register save/restore + dispatch
	Comm     sim.Time // EXU idle with no ready thread: exposed latency
}

// Total returns the sum of all components.
func (b Breakdown) Total() sim.Time {
	return b.Compute + b.Overhead + b.Switch + b.Comm
}

// Add accumulates other into b.
func (b *Breakdown) Add(other Breakdown) {
	b.Compute += other.Compute
	b.Overhead += other.Overhead
	b.Switch += other.Switch
	b.Comm += other.Comm
}

// Fractions returns each component as a fraction of the total, in the
// order compute, overhead, comm, switch (the paper's Figure 8 stacking
// order from the bottom). A zero total yields zeros.
func (b Breakdown) Fractions() (compute, overhead, comm, sw float64) {
	t := float64(b.Total())
	if t == 0 {
		return
	}
	return float64(b.Compute) / t, float64(b.Overhead) / t,
		float64(b.Comm) / t, float64(b.Switch) / t
}

// PE aggregates one processor's counters for a run.
type PE struct {
	Times    Breakdown
	Switches [NumSwitchKinds]uint64

	RemoteReads  uint64 // read + block-read words requested by this PE
	RemoteWrites uint64
	Invokes      uint64
	SyncsSent    uint64
	Spills       uint64 // packet-queue overflows to memory
	Dispatches   uint64 // threads dequeued by the MU
	ServicedDMA  uint64 // remote requests serviced by the by-passing DMA
	ServicedEXU  uint64 // remote requests serviced on the EXU (EM-4 mode)
}

// TotalSwitches sums all switch kinds.
func (p *PE) TotalSwitches() uint64 {
	var n uint64
	for _, s := range p.Switches {
		n += s
	}
	return n
}

// Run holds a whole machine's measurements for one experiment point.
type Run struct {
	Label    string
	P        int // processors
	H        int // threads per processor
	N        int // problem size in elements/points (simulated)
	PaperN   int // the paper-equivalent size this point stands for
	Makespan sim.Time
	PEs      []PE
	// Network-level counters.
	PacketsSent     uint64
	PacketsHops     uint64
	NetQueueDelay   sim.Time
	SimEvents       uint64
	HostElapsedSecs float64
}

// TotalBreakdown sums the per-PE breakdowns.
func (r *Run) TotalBreakdown() Breakdown {
	var b Breakdown
	for i := range r.PEs {
		b.Add(r.PEs[i].Times)
	}
	return b
}

// MeanCommTime returns the average per-PE communication (exposed latency)
// time in cycles — the y-axis of Figure 6.
func (r *Run) MeanCommTime() float64 {
	if len(r.PEs) == 0 {
		return 0
	}
	var s sim.Time
	for i := range r.PEs {
		s += r.PEs[i].Times.Comm
	}
	return float64(s) / float64(len(r.PEs))
}

// MeanSwitches returns the average per-PE count for one switch kind —
// the y-axis of Figure 9.
func (r *Run) MeanSwitches(k SwitchKind) float64 {
	if len(r.PEs) == 0 {
		return 0
	}
	var s uint64
	for i := range r.PEs {
		s += r.PEs[i].Switches[k]
	}
	return float64(s) / float64(len(r.PEs))
}

// SumCounter folds an arbitrary per-PE counter.
func (r *Run) SumCounter(f func(*PE) uint64) uint64 {
	var s uint64
	for i := range r.PEs {
		s += f(&r.PEs[i])
	}
	return s
}

// Efficiency computes the paper's overlapping efficiency in percent:
// E = (Tcomm,1 - Tcomm,h) / Tcomm,1 * 100, where base is the
// single-thread run and r the h-thread run of the same workload.
func Efficiency(base, r *Run) float64 {
	t1 := base.MeanCommTime()
	if t1 == 0 {
		return 0
	}
	return (t1 - r.MeanCommTime()) / t1 * 100
}
