package obs

import (
	"fmt"
	"io"
	"strings"
)

// WriteDiff renders a whole-machine comparison of two profiles, A → B:
// per-phase and per-cause deltas with relative change. Like the report,
// the output is byte-exact — fixed field order, explicit formats — so a
// diff of two cached profiles is itself a cacheable artifact.
//
// The profiles may have different machine sizes; the diff compares
// machine totals, which remain meaningful (e.g. bypass vs EM-4 mode, or
// two calibrations of the same workload).
func WriteDiff(w io.Writer, a, b *Profile) error {
	ma, mb := a.Machine(), b.Machine()
	var sb strings.Builder
	fmt.Fprintf(&sb, "emxprof profile diff (A -> B, %s)\n", ProfileVersion)
	fmt.Fprintf(&sb, "A: P=%d points=%d simulated=%d cycles\n", a.P, a.Points, a.Makespan)
	fmt.Fprintf(&sb, "B: P=%d points=%d simulated=%d cycles\n", b.P, b.Points, b.Makespan)

	sb.WriteString("\nphase cycles (whole machine):\n")
	fmt.Fprintf(&sb, "  %-12s %14s %14s %14s %9s\n", "phase", "A", "B", "delta", "change")
	for ph := Phase(0); ph < NumPhases; ph++ {
		writeDiffRow(&sb, ph.String(), ma.Phases[ph], mb.Phases[ph])
	}
	writeDiffRow(&sb, "total", ma.Total(), mb.Total())
	writeDiffRow(&sb, "makespan", a.Makespan, b.Makespan)

	sb.WriteString("\ncontext switches by cause:\n")
	fmt.Fprintf(&sb, "  %-12s %14s %14s %14s %9s\n", "cause", "A", "B", "delta", "change")
	for c := SwitchCause(0); c < NumSwitchCauses; c++ {
		writeDiffRow(&sb, c.String(), int64(ma.Switches[c]), int64(mb.Switches[c]))
	}
	writeDiffRow(&sb, "total", int64(ma.TotalSwitches()), int64(mb.TotalSwitches()))

	sb.WriteString("\ncounters:\n")
	fmt.Fprintf(&sb, "  %-12s %14s %14s %14s %9s\n", "counter", "A", "B", "delta", "change")
	writeDiffRow(&sb, "threads", int64(ma.Threads), int64(mb.Threads))
	writeDiffRow(&sb, "dispatches", int64(ma.Dispatches), int64(mb.Dispatches))
	writeDiffRow(&sb, "dma-serviced", int64(ma.ServicedDMA), int64(mb.ServicedDMA))
	writeDiffRow(&sb, "exu-serviced", int64(ma.ServicedEXU), int64(mb.ServicedEXU))
	writeDiffRow(&sb, "spills", int64(ma.Spills), int64(mb.Spills))
	writeDiffRow(&sb, "net-hops", int64(ma.NetHops), int64(mb.NetHops))
	writeDiffRow(&sb, "net-stall", ma.NetStall, mb.NetStall)

	_, err := io.WriteString(w, sb.String())
	return err
}

func writeDiffRow(sb *strings.Builder, name string, a, b int64) {
	change := "     n/a"
	if a != 0 {
		change = fmt.Sprintf("%+8.1f%%", 100*float64(b-a)/float64(a))
	}
	fmt.Fprintf(sb, "  %-12s %14d %14d %+14d %s\n", name, a, b, b-a, change)
}
