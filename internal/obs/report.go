package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// cyclesMicros renders a cycle count in simulated microseconds at the
// EMC-Y's 20 MHz (50 ns per cycle) — presentation only; obs itself
// never does time arithmetic.
func cyclesMicros(c int64) float64 { return float64(c) * 50e-3 }

// share formats part/total as a percentage with one decimal.
func share(part, total int64) string {
	if total == 0 {
		return "   0.0%"
	}
	return fmt.Sprintf("%6.1f%%", 100*float64(part)/float64(total))
}

// Report renders the profile as the sorted text "top" report. Output is
// a pure function of the profile: integers, fixed-width formats, and
// explicit sort orders, so it is byte-exact across runs, hosts, and
// worker counts.
func (p *Profile) Report() string {
	var b strings.Builder
	p.WriteReport(&b)
	return b.String()
}

// WriteReport writes Report's bytes to w.
func (p *Profile) WriteReport(w io.Writer) error {
	m := p.Machine()
	total := m.Total()

	var b strings.Builder
	fmt.Fprintf(&b, "emxprof cycle-accounting report (%s)\n", ProfileVersion)
	fmt.Fprintf(&b, "machine: P=%d  points=%d  simulated=%d cycles (%.2f us)  engine events=%d\n",
		p.P, p.Points, p.Makespan, cyclesMicros(p.Makespan), p.Dispatched)
	fmt.Fprintf(&b, "events: recorded=%d retained=%d dropped=%d%s\n",
		p.Recorded, p.Retained, p.TotalDropped(), dropDetail(p.Dropped))

	// Phase totals, hottest first (ties broken by phase order) — the
	// "top" list of where the machine's cycles went.
	b.WriteString("\nphase breakdown (whole machine):\n")
	order := make([]Phase, NumPhases)
	for i := range order {
		order[i] = Phase(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return m.Phases[order[i]] > m.Phases[order[j]]
	})
	for _, ph := range order {
		fmt.Fprintf(&b, "  %-8s %12d  %s\n", ph, m.Phases[ph], share(m.Phases[ph], total))
	}
	fmt.Fprintf(&b, "  %-8s %12d  %s\n", "total", total, share(total, total))

	// Switch causes in the paper's fixed Figure 9 order.
	b.WriteString("\ncontext switches by cause:\n")
	for c := SwitchCause(0); c < NumSwitchCauses; c++ {
		fmt.Fprintf(&b, "  %-12s %10d\n", c, m.Switches[c])
	}
	fmt.Fprintf(&b, "  %-12s %10d\n", "total", m.TotalSwitches())

	fmt.Fprintf(&b, "\nactivity: threads=%d dispatches=%d\n", m.Threads, m.Dispatches)
	fmt.Fprintf(&b, "packets: dma-serviced=%d exu-serviced=%d spills=%d\n",
		m.ServicedDMA, m.ServicedEXU, m.Spills)
	fmt.Fprintf(&b, "network: hops=%d stall=%d cycles\n", m.NetHops, m.NetStall)

	b.WriteString("\nper-PE cycles and switches:\n")
	fmt.Fprintf(&b, "  %3s %12s %12s %12s %12s %12s | %10s %10s %11s %9s\n",
		"PE", "run", "switch", "spill", "service", "idle",
		"remote-rd", "iter-sync", "thread-sync", "explicit")
	for pe := range p.PEs {
		pp := &p.PEs[pe]
		fmt.Fprintf(&b, "  %3d %12d %12d %12d %12d %12d | %10d %10d %11d %9d\n",
			pe, pp.Phases[PhaseRun], pp.Phases[PhaseSwitch], pp.Phases[PhaseSpill],
			pp.Phases[PhaseService], pp.Phases[PhaseIdle],
			pp.Switches[CauseRemoteRead], pp.Switches[CauseIterSync],
			pp.Switches[CauseThreadSync], pp.Switches[CauseExplicit])
	}

	if len(p.Slices) > 0 {
		fmt.Fprintf(&b, "\ntime slices (%d cycles each, whole machine):\n", p.SliceCycles)
		fmt.Fprintf(&b, "  %12s %12s %12s %12s %12s %12s\n",
			"from", "run", "switch", "spill", "service", "idle")
		for i := range p.Slices {
			s := &p.Slices[i]
			fmt.Fprintf(&b, "  %12d %12d %12d %12d %12d %12d\n",
				s.From, s.Phases[PhaseRun], s.Phases[PhaseSwitch], s.Phases[PhaseSpill],
				s.Phases[PhaseService], s.Phases[PhaseIdle])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// dropDetail renders non-zero per-category drop counts, or "".
func dropDetail(d [NumCategories]uint64) string {
	var parts []string
	for c := Category(0); c < NumCategories; c++ {
		if d[c] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, d[c]))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, ", ") + ")"
}
