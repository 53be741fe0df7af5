package obs

import "fmt"

// Options configures a Tracer.
type Options struct {
	// P is the number of PEs the profile is sized for (required, >= 1).
	P int
	// Capacity bounds the event ring (<= 0: DefaultCapacity).
	Capacity int
	// SliceCycles, when > 0, additionally aggregates phase charges into
	// whole-machine time slices of this width — the profile "keyed by
	// sim time". 0 disables slicing.
	SliceCycles int64
	// Retain selects which categories are kept as individual events in
	// the ring (0: DefaultRetain). The profile does not depend on it.
	Retain CategoryMask
}

// NameEntry associates a thread name with its (PE, frame) identity at
// spawn time. Entries are appended in spawn order, which is part of the
// deterministic event order; a reused frame ID simply gets a later
// entry.
type NameEntry struct {
	PE    int32  `json:"pe"`
	Frame uint32 `json:"frame"`
	Name  string `json:"name"`
}

// Tracer collects events from an instrumented simulation into a bounded
// ring and time slices. It counts only what the simulator does not:
// threads started and each PE's network hops and stall cycles; Finish
// takes every other profile figure from the run's own accounting. The
// zero *Tracer (nil) is the disabled state: every record method is
// nil-receiver-safe and returns immediately, so uninstrumented runs pay
// one branch per call site and allocate nothing.
//
// A Tracer serves exactly one Machine run; like the Machine it is
// single-use and not safe for concurrent use.
type Tracer struct {
	ring        *Ring[Event]
	retain      CategoryMask
	sliceCycles int64

	prof  Profile
	names []NameEntry
}

// New builds a tracer for a machine with opts.P processors.
func New(opts Options) *Tracer {
	if opts.P < 1 {
		panic(fmt.Sprintf("obs: Options.P must be >= 1, got %d", opts.P))
	}
	if opts.Retain == 0 {
		opts.Retain = DefaultRetain
	}
	t := &Tracer{
		ring:        NewRing[Event](opts.Capacity),
		retain:      opts.Retain,
		sliceCycles: opts.SliceCycles,
	}
	t.prof.Version = ProfileVersion
	t.prof.P = opts.P
	t.prof.Points = 1
	t.prof.SliceCycles = opts.SliceCycles
	t.prof.PEs = make([]PEProfile, opts.P)
	return t
}

// P returns the processor count the tracer was sized for, 0 for nil.
func (t *Tracer) P() int {
	if t == nil {
		return 0
	}
	return t.prof.P
}

// record accounts one event and retains it if its category is enabled.
func (t *Tracer) record(ev Event) {
	t.prof.Recorded++
	if t.retain&(1<<ev.Cat) == 0 {
		return
	}
	if old, dropped := t.ring.Push(ev); dropped {
		t.prof.Dropped[old.Cat]++
	}
}

// Cycle records a charge of cycles to one phase of a PE's
// decomposition, adding it to the time slice it falls in.
func (t *Tracer) Cycle(at int64, pe int32, ph Phase, cycles int64) {
	if t == nil || cycles <= 0 {
		return
	}
	if t.sliceCycles > 0 {
		t.slice(at).Phases[ph] += cycles
	}
	t.record(Event{At: at, PE: pe, Cat: CatCycle, Code: uint8(ph), A: cycles})
}

// slice returns the whole-machine slice covering time at, growing the
// slice list as simulated time advances.
func (t *Tracer) slice(at int64) *Slice {
	idx := int(at / t.sliceCycles)
	for len(t.prof.Slices) <= idx {
		from := int64(len(t.prof.Slices)) * t.sliceCycles
		t.prof.Slices = append(t.prof.Slices, Slice{From: from, To: from + t.sliceCycles})
	}
	return &t.prof.Slices[idx]
}

// Switch records one context switch with its cause.
func (t *Tracer) Switch(at int64, pe int32, cause SwitchCause, frame uint32) {
	if t == nil {
		return
	}
	t.record(Event{At: at, PE: pe, Cat: CatSwitch, Code: uint8(cause), A: int64(frame)})
}

// Thread records a thread lifecycle transition.
func (t *Tracer) Thread(at int64, pe int32, kind ThreadKind, frame uint32) {
	if t == nil {
		return
	}
	if kind == ThreadStart {
		t.prof.PEs[pe].Threads++
	}
	t.record(Event{At: at, PE: pe, Cat: CatThread, Code: uint8(kind), A: int64(frame)})
}

// ThreadName associates a name with a (PE, frame) identity; called once
// per spawn, off the steady-state hot path.
func (t *Tracer) ThreadName(pe int32, frame uint32, name string) {
	if t == nil {
		return
	}
	t.names = append(t.names, NameEntry{PE: pe, Frame: frame, Name: name})
}

// Packet records a packet-service event taking cycles.
func (t *Tracer) Packet(at int64, pe int32, kind PacketKind, cycles int64) {
	if t == nil {
		return
	}
	t.record(Event{At: at, PE: pe, Cat: CatPacket, Code: uint8(kind), A: cycles})
}

// Hop records one network hop (or ejection) for a packet bound for pe,
// with the port-contention stall it suffered.
func (t *Tracer) Hop(at int64, pe int32, kind NetKind, stall int64) {
	if t == nil {
		return
	}
	t.prof.PEs[pe].NetHops++
	t.prof.PEs[pe].NetStall += stall
	t.record(Event{At: at, PE: pe, Cat: CatNet, Code: uint8(kind), A: stall})
}

// Dispatch records one engine event dispatch (the sim scheduler hook)
// when CatSched events are retained.
func (t *Tracer) Dispatch(at int64) {
	if t != nil && t.retain&(1<<CatSched) != 0 {
		t.record(Event{At: at, Cat: CatSched})
	}
}

// Finish seals the profile with the run's own accounting: its makespan,
// its engine event count and one PEProfile per PE holding the phases
// and counters the simulator keeps, into which Finish merges the
// tracer's thread, hop and stall counts. Trailing empty slices are
// trimmed and the last slice is clamped to the makespan.
func (t *Tracer) Finish(makespan int64, events uint64, pes []PEProfile) {
	if t == nil {
		return
	}
	if len(pes) != t.prof.P {
		panic(fmt.Sprintf("obs: Finish given %d PE records for P=%d", len(pes), t.prof.P))
	}
	for i := range pes {
		own := &t.prof.PEs[i]
		pes[i].Threads, pes[i].NetHops, pes[i].NetStall = own.Threads, own.NetHops, own.NetStall
	}
	t.prof.PEs = pes
	t.prof.Makespan = makespan
	t.prof.Dispatched = events
	t.prof.Retained = t.ring.Len()
	if t.sliceCycles > 0 {
		for len(t.prof.Slices) > 0 {
			last := &t.prof.Slices[len(t.prof.Slices)-1]
			if last.From > makespan {
				t.prof.Slices = t.prof.Slices[:len(t.prof.Slices)-1]
				continue
			}
			if last.To > makespan {
				last.To = makespan
			}
			break
		}
	}
}

// Profile returns a copy of the aggregated profile. Call after Finish.
func (t *Tracer) Profile() *Profile {
	if t == nil {
		return nil
	}
	p := t.prof
	p.PEs = append([]PEProfile(nil), t.prof.PEs...)
	p.Slices = append([]Slice(nil), t.prof.Slices...)
	return &p
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// Names returns the thread name table in spawn order.
func (t *Tracer) Names() []NameEntry {
	if t == nil {
		return nil
	}
	return append([]NameEntry(nil), t.names...)
}
