// Package obs is the cycle-accounting observability layer of the
// simulator and serving stack: bounded event collection, a phase-level
// cycle-accounting profile model, and deterministic exporters (a
// Perfetto/Chrome trace-event writer, a sorted text report, and a
// profile diff).
//
// The package sits below every other emx package — it imports nothing
// from the repository — so the simulation engine, the EXU model, the
// packet units, and the network can all feed it events. Simulated time
// arrives as a raw int64 cycle count (the caller's sim.Time); obs never
// touches the host clock, so everything it emits is a pure function of
// the simulated event stream and therefore byte-identical across hosts
// and worker counts.
//
// Design for the hot path: instrumented components hold a *Tracer that
// is nil by default, and every record method is nil-receiver-safe, so
// the disabled case costs one predictable branch and zero allocations.
// When tracing is on, event retention goes through a preallocated ring
// buffer with per-category drop counters, so multi-million-cycle runs
// cannot exhaust host memory. The profile's phases and counters are
// the run's own accounting, handed over at Finish, so they stay exact
// even when the ring wraps.
package obs

import "strconv"

// Category classifies an event by the subsystem that produced it. The
// per-category drop counters and the retention mask are indexed by it.
type Category uint8

const (
	// CatThread: a thread lifecycle transition (start/run/read/yield/end).
	CatThread Category = iota
	// CatSwitch: a context switch, classified by cause (Figure 9).
	CatSwitch
	// CatCycle: an EXU cycle-accounting charge to one phase.
	CatCycle
	// CatPacket: packet servicing (by-passing DMA, EXU service, spill).
	CatPacket
	// CatNet: a network link hop or ejection, with its contention stall.
	CatNet
	// CatSched: one engine event dispatch (very high volume; retained
	// in the ring only when explicitly enabled).
	CatSched
	NumCategories
)

var categoryNames = [NumCategories]string{
	"thread", "switch", "cycle", "packet", "net", "sched",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "category(?)"
}

// Phase is one bucket of the EXU cycle decomposition. The five phases
// partition a PE's makespan: user instructions, switch save/restore and
// MU dispatch, FIFO spill/restore MCU traffic, packet generation and
// servicing, and idle (exposed communication latency).
type Phase uint8

const (
	// PhaseRun: the EXU executing user instructions (compute, local
	// memory access).
	PhaseRun Phase = iota
	// PhaseSwitch: register save/restore, MU dispatch, spin checks.
	PhaseSwitch
	// PhaseSpill: extra MCU traffic restoring spilled queue packets.
	PhaseSpill
	// PhaseService: packet generation and EXU-side request servicing.
	PhaseService
	// PhaseIdle: the EXU idle with no ready thread — exposed latency.
	PhaseIdle
	NumPhases
)

var phaseNames = [NumPhases]string{"run", "switch", "spill", "service", "idle"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase(?)"
}

// SwitchCause classifies why a thread switched out, in the paper's
// Figure 9 taxonomy. metrics.SwitchKind is this type, so the run's switch
// counters and the profile index the same values.
type SwitchCause uint8

const (
	// CauseRemoteRead: a split-phase remote read suspended the thread.
	// One per remote read; independent of thread count.
	CauseRemoteRead SwitchCause = iota
	// CauseIterSync: an end-of-iteration barrier wait for other threads
	// or other PEs.
	CauseIterSync
	// CauseThreadSync: a wait on a sibling thread on the same PE
	// (sorting's ordered-merge constraint).
	CauseThreadSync
	// CauseExplicit: a voluntary yield not caused by the above.
	CauseExplicit
	NumSwitchCauses
)

var causeNames = [NumSwitchCauses]string{
	"remote-read", "iter-sync", "thread-sync", "explicit",
}

func (c SwitchCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "switch(" + strconv.Itoa(int(c)) + ")"
}

// ThreadKind is a thread lifecycle transition.
type ThreadKind uint8

const (
	// ThreadStart: the thread was invoked and began executing.
	ThreadStart ThreadKind = iota
	// ThreadRun: a suspended/queued thread resumed on the EXU.
	ThreadRun
	// ThreadRead: the thread issued a split-phase read and suspended.
	ThreadRead
	// ThreadYield: the thread switched out voluntarily.
	ThreadYield
	// ThreadEnd: the thread completed.
	ThreadEnd
	NumThreadKinds
)

var threadKindNames = [NumThreadKinds]string{"start", "run", "read", "yield", "end"}

func (k ThreadKind) String() string {
	if int(k) < len(threadKindNames) {
		return threadKindNames[k]
	}
	return "kind(?)"
}

// PacketKind classifies a packet-service event.
type PacketKind uint8

const (
	// PktBypassDMA: a remote request serviced by the by-passing DMA.
	PktBypassDMA PacketKind = iota
	// PktEXUService: a remote request serviced on the EXU (EM-4 mode).
	PktEXUService
	// PktSpill: a queue packet spilled to the on-memory buffer.
	PktSpill
	NumPacketKinds
)

var packetKindNames = [NumPacketKinds]string{"dma-service", "exu-service", "spill"}

func (k PacketKind) String() string {
	if int(k) < len(packetKindNames) {
		return packetKindNames[k]
	}
	return "packet(?)"
}

// NetKind classifies a network event.
type NetKind uint8

const (
	// NetHop: a packet head moved one link hop.
	NetHop NetKind = iota
	// NetEject: a packet moved through the destination processor port.
	NetEject
	NumNetKinds
)

var netKindNames = [NumNetKinds]string{"hop", "eject"}

func (k NetKind) String() string {
	if int(k) < len(netKindNames) {
		return netKindNames[k]
	}
	return "net(?)"
}

// Event is one observability record: fixed-size, string-free, stored by
// value in the ring buffer so recording never allocates. The payload
// field A is category-specific:
//
//	CatThread: Code=ThreadKind, A=frame
//	CatSwitch: Code=SwitchCause, A=frame
//	CatCycle:  Code=Phase, A=cycles charged
//	CatPacket: Code=PacketKind, A=service cycles
//	CatNet:    Code=NetKind, A=contention stall cycles
//	CatSched:  (none)
type Event struct {
	// At is the simulated time in cycles (the caller's sim.Time).
	At int64
	// PE is the processor the event is attributed to (a packet's
	// destination for network events).
	PE int32
	// Cat is the event's category.
	Cat Category
	// Code is the category-specific sub-kind (see Event doc).
	Code uint8
	// A carries the category-specific payload.
	A int64
}

// CategoryMask selects a set of categories, one bit per Category.
type CategoryMask uint16

// MaskOf builds a mask from categories.
func MaskOf(cats ...Category) CategoryMask {
	var m CategoryMask
	for _, c := range cats {
		m |= 1 << c
	}
	return m
}

// DefaultRetain is the default ring-retention mask: everything except
// the two high-volume firehoses (per-dispatch scheduler events and
// per-charge cycle events), which are not kept as individual events
// unless asked for.
const DefaultRetain = CategoryMask(1<<CatThread | 1<<CatSwitch | 1<<CatPacket |
	1<<CatNet)
