package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// ProfileVersion versions the profile JSON encoding; bumped whenever a
// field changes meaning, so stale dumps can never be diffed against new
// ones silently.
const ProfileVersion = "emxprof/v1"

// PEProfile is one processor's aggregated accounting.
type PEProfile struct {
	// Phases decomposes the PE's cycles, indexed by Phase
	// (run, switch, spill, service, idle).
	Phases [NumPhases]int64 `json:"phases"`
	// Switches counts context switches by SwitchCause
	// (remote-read, iter-sync, thread-sync, explicit) — Figure 9.
	Switches [NumSwitchCauses]uint64 `json:"switches"`
	// Dispatches counts Matching Unit packet dispatches.
	Dispatches uint64 `json:"dispatches"`
	// Threads counts threads started on this PE.
	Threads uint64 `json:"threads"`
	// Spills counts queue packets spilled to the on-memory buffer.
	Spills uint64 `json:"spills"`
	// ServicedDMA / ServicedEXU count remote requests serviced by the
	// by-passing DMA and on the EXU (EM-4 mode).
	ServicedDMA uint64 `json:"serviced_dma"`
	ServicedEXU uint64 `json:"serviced_exu"`
	// NetHops counts link hops and ejections of packets bound for this
	// PE; NetStall sums the port-contention cycles they waited.
	NetHops  uint64 `json:"net_hops"`
	NetStall int64  `json:"net_stall_cycles"`
}

// Total returns the sum of the PE's phase cycles.
func (p *PEProfile) Total() int64 {
	var s int64
	for _, v := range p.Phases {
		s += v
	}
	return s
}

// TotalSwitches sums the PE's switch counts across causes.
func (p *PEProfile) TotalSwitches() uint64 {
	var s uint64
	for _, v := range p.Switches {
		s += v
	}
	return s
}

// add accumulates other into p.
func (p *PEProfile) add(other *PEProfile) {
	for i := range p.Phases {
		p.Phases[i] += other.Phases[i]
	}
	for i := range p.Switches {
		p.Switches[i] += other.Switches[i]
	}
	p.Dispatches += other.Dispatches
	p.Threads += other.Threads
	p.Spills += other.Spills
	p.ServicedDMA += other.ServicedDMA
	p.ServicedEXU += other.ServicedEXU
	p.NetHops += other.NetHops
	p.NetStall += other.NetStall
}

// Slice is one whole-machine time slice of the phase decomposition.
type Slice struct {
	From   int64            `json:"from"`
	To     int64            `json:"to"`
	Phases [NumPhases]int64 `json:"phases"`
}

// Profile is the cycle-accounting model of one run (or, after Merge,
// of several runs of the same machine size). All quantities are
// simulated — cycles and counts — never host time, so a profile is a
// deterministic, cacheable artifact of its run identity.
type Profile struct {
	Version string `json:"version"`
	// P is the machine size; PEs has exactly P entries.
	P int `json:"p"`
	// Points counts the runs merged into this profile (1 for a single
	// run). Makespan sums across merged runs: it is total simulated
	// cycles, not wall-clock extent, once Points > 1.
	Points   int   `json:"points"`
	Makespan int64 `json:"makespan_cycles"`
	// Dispatched counts the engine events the run dispatched.
	Dispatched uint64 `json:"engine_events"`
	// Recorded counts every event offered to the tracer; Retained is
	// how many the ring still holds; Dropped counts ring evictions by
	// category. The per-PE records do not depend on drops: their
	// phases and counters are the run's own accounting.
	Recorded uint64                `json:"events_recorded"`
	Retained int                   `json:"events_retained"`
	Dropped  [NumCategories]uint64 `json:"events_dropped"`
	PEs      []PEProfile           `json:"pes"`
	// SliceCycles is the slicing width (0: no slices); Slices is the
	// whole-machine phase decomposition per time slice.
	SliceCycles int64   `json:"slice_cycles,omitempty"`
	Slices      []Slice `json:"slices,omitempty"`
}

// Machine returns the whole-machine phase totals (sum over PEs).
func (p *Profile) Machine() PEProfile {
	var m PEProfile
	for i := range p.PEs {
		m.add(&p.PEs[i])
	}
	return m
}

// TotalDropped sums ring evictions across categories.
func (p *Profile) TotalDropped() uint64 {
	var s uint64
	for _, v := range p.Dropped {
		s += v
	}
	return s
}

// Merge sums profiles of the same machine size into one: phase and
// counter totals accumulate, makespans add up (total simulated cycles),
// and time slices are dropped (each run has its own time axis). The
// input order does not matter — merging is commutative — which is what
// keeps multi-worker sweep profiles deterministic.
func Merge(profiles []*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("obs: nothing to merge")
	}
	out := &Profile{Version: ProfileVersion, P: profiles[0].P}
	out.PEs = make([]PEProfile, out.P)
	for _, p := range profiles {
		if p.P != out.P {
			return nil, fmt.Errorf("obs: cannot merge profiles of different machine sizes (P=%d vs P=%d)", out.P, p.P)
		}
		out.Points += p.Points
		out.Makespan += p.Makespan
		out.Dispatched += p.Dispatched
		out.Recorded += p.Recorded
		out.Retained += p.Retained
		for i := range p.Dropped {
			out.Dropped[i] += p.Dropped[i]
		}
		for i := range p.PEs {
			out.PEs[i].add(&p.PEs[i])
		}
	}
	return out, nil
}

// WriteJSON writes the profile as indented JSON. encoding/json emits
// struct fields in declaration order, so the bytes are deterministic.
func (p *Profile) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// LoadProfile parses a profile JSON dump and checks its version.
func LoadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("obs: parsing profile: %w", err)
	}
	if p.Version != ProfileVersion {
		return nil, fmt.Errorf("obs: profile version %q, this build reads %q", p.Version, ProfileVersion)
	}
	if p.P < 1 || len(p.PEs) != p.P {
		return nil, fmt.Errorf("obs: malformed profile: p=%d with %d PE records", p.P, len(p.PEs))
	}
	return &p, nil
}
