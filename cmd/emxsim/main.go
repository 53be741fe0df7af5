// Command emxsim runs one workload configuration on the simulated EM-X
// and prints the measurements the paper reports: the execution-time
// decomposition, switch counts by type, and network statistics.
//
// Usage:
//
//	emxsim -workload bitonic -p 64 -n 16384 -h 4
//	emxsim -workload fft -p 16 -n 8192 -h 2 -mode exu
//	emxsim -workload spmv -p 80 -n 5120 -h 2
//
// A point the workload cannot run (bitonic and fft need a power-of-two
// P and n, spmv an n that P divides) exits 2 with the workload's reason.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"emx/internal/harness"
	"emx/internal/metrics"
	"emx/internal/proc"
	"emx/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emxsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "bitonic", "workload: bitonic, fft, or spmv")
		p        = fs.Int("p", 16, "number of processors")
		n        = fs.Int("n", 16384, "problem size in elements/points/rows")
		h        = fs.Int("h", 4, "threads per processor")
		mode     = fs.String("mode", "bypass", "remote request servicing: bypass (EM-X) or exu (EM-4)")
		block    = fs.Bool("block", false, "bitonic: use block-read send instructions")
		seed     = fs.Int64("seed", 1, "input generator seed")
		verify   = fs.Bool("verify", true, "check the workload's output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	w, err := harness.ParseWorkload(strings.ToLower(*workload))
	if err != nil {
		fmt.Fprintln(stderr, "emxsim:", err)
		return 2
	}
	svc, err := proc.ParseServiceMode(*mode)
	if err != nil {
		fmt.Fprintln(stderr, "emxsim:", err)
		return 2
	}
	if *p < 1 || *n < 1 || *h < 1 {
		fmt.Fprintf(stderr, "emxsim: -p, -n, and -h must be >= 1 (got p=%d n=%d h=%d)\n", *p, *n, *h)
		return 2
	}
	ps := harness.PointSpec{
		Workload: w, P: *p, SimN: *n, PaperN: *n, H: *h, Mode: svc,
		BlockRead: *block, Seed: *seed, Verify: *verify,
	}
	if err := ps.Validate(); err != nil {
		fmt.Fprintln(stderr, "emxsim:", err)
		return 2
	}

	run, err := harness.RunPoint(ps)
	if err != nil {
		fmt.Fprintln(stderr, "emxsim:", err)
		return 1
	}

	fmt.Fprintf(stdout, "workload        %s (verified: %v)\n", w, *verify)
	fmt.Fprintf(stdout, "machine         P=%d EMC-Y @ 20 MHz, %s servicing\n", *p, svc)
	fmt.Fprintf(stdout, "problem         n=%d, h=%d threads/PE\n", *n, *h)
	fmt.Fprintf(stdout, "makespan        %d cycles = %.3f ms simulated\n",
		run.Makespan, run.Makespan.Seconds()*1e3)
	fmt.Fprintf(stdout, "events          %d simulation events\n", run.SimEvents)

	b := run.TotalBreakdown()
	c, o, m, s := b.Fractions()
	fmt.Fprintf(stdout, "\nexecution time distribution (all PEs):\n")
	fmt.Fprintf(stdout, "  computation   %6.2f%%  (%d cycles)\n", 100*c, b.Compute)
	fmt.Fprintf(stdout, "  overhead      %6.2f%%  (%d cycles)\n", 100*o, b.Overhead)
	fmt.Fprintf(stdout, "  communication %6.2f%%  (%d cycles)\n", 100*m, b.Comm)
	fmt.Fprintf(stdout, "  switching     %6.2f%%  (%d cycles)\n", 100*s, b.Switch)

	fmt.Fprintf(stdout, "\nswitches per PE (mean):\n")
	for _, k := range []metrics.SwitchKind{
		metrics.SwitchRemoteRead, metrics.SwitchIterSync,
		metrics.SwitchThreadSync, metrics.SwitchExplicit,
	} {
		fmt.Fprintf(stdout, "  %-12s  %.1f\n", k, run.MeanSwitches(k))
	}

	fmt.Fprintf(stdout, "\ncounters:\n")
	fmt.Fprintf(stdout, "  remote reads  %d\n", run.SumCounter(func(pe *metrics.PE) uint64 { return pe.RemoteReads }))
	fmt.Fprintf(stdout, "  remote writes %d\n", run.SumCounter(func(pe *metrics.PE) uint64 { return pe.RemoteWrites }))
	fmt.Fprintf(stdout, "  DMA serviced  %d\n", run.SumCounter(func(pe *metrics.PE) uint64 { return pe.ServicedDMA }))
	fmt.Fprintf(stdout, "  EXU serviced  %d\n", run.SumCounter(func(pe *metrics.PE) uint64 { return pe.ServicedEXU }))
	fmt.Fprintf(stdout, "  queue spills  %d\n", run.SumCounter(func(pe *metrics.PE) uint64 { return pe.Spills }))
	fmt.Fprintf(stdout, "  packets sent  %d (%d link hops, %d cycles queueing)\n",
		run.PacketsSent, run.PacketsHops, run.NetQueueDelay)
	fmt.Fprintf(stdout, "  mean comm/PE  %.0f cycles (%.2f us)\n",
		run.MeanCommTime(), sim.Time(run.MeanCommTime()).Micros())
	return 0
}
