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
	// the ring (0: DefaultRetain). Profile aggregation is unaffected:
	// every category is accounted whether or not it is retained.
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

// Tracer collects events from an instrumented simulation and aggregates
// them into a Profile on the fly. The zero *Tracer (nil) is the
// disabled state: every record method is nil-receiver-safe and returns
// immediately, so uninstrumented runs pay one branch per call site and
// allocate nothing.
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

// Cycle charges cycles to one phase of a PE's decomposition.
func (t *Tracer) Cycle(at int64, pe int32, ph Phase, cycles int64) {
	if t == nil || cycles <= 0 {
		return
	}
	t.prof.PEs[pe].Phases[ph] += cycles
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
	t.prof.PEs[pe].Switches[cause]++
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
	switch kind {
	case PktSpill:
		t.prof.PEs[pe].Spills++
	case PktBypassDMA:
		t.prof.PEs[pe].ServicedDMA++
	case PktEXUService:
		t.prof.PEs[pe].ServicedEXU++
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

// MUDispatch records one Matching Unit packet dispatch on a PE.
func (t *Tracer) MUDispatch(at int64, pe int32) {
	if t == nil {
		return
	}
	t.prof.PEs[pe].Dispatches++
}

// Dispatch records one engine event dispatch (the sim scheduler hook).
func (t *Tracer) Dispatch(at int64) {
	if t == nil {
		return
	}
	t.prof.Dispatched++
	if t.retain&(1<<CatSched) != 0 {
		t.record(Event{At: at, Cat: CatSched})
	}
}

// Finish seals the profile at the run's makespan: trailing empty slices
// are trimmed and the last slice is clamped to the makespan.
func (t *Tracer) Finish(makespan int64) {
	if t == nil {
		return
	}
	t.prof.Makespan = makespan
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
