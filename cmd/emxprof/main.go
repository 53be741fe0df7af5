// Command emxprof is the cycle-accounting profiler for the simulated
// EM-X: it runs a workload with the obs tracer attached and renders
// where every processor's cycles went — run, switch, spill, service,
// idle — with switch counts decomposed by cause, the same accounting
// behind the paper's Figures 8-11. For one point it also draws the
// per-thread execution timelines of the paper's Figures 4 and 5.
//
// Profiling is observation-only: a profiled run is cycle-identical to an
// unprofiled one, and every output is byte-identical across -workers
// settings.
//
// Usage:
//
//	emxprof -workload bitonic -p 2 -n 8 -h 2 -seed 7   # one point, text report
//	emxprof -format timeline                            # Figure 4: bitonic, P=2, h=2, 8 elements
//	emxprof -workload fft -p 4 -n 16 -format timeline   # Figure 5: FFT iteration structure
//	emxprof -fig 6a -workers 8                          # a whole panel, merged
//	emxprof -fig 6a -format perfetto -o 6a.trace.json   # open in ui.perfetto.dev
//	emxprof -workload fft -p 16 -n 4096 -h 8 -format json -o fft.prof
//	emxprof -diff a.prof b.prof                         # compare two profiles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"emx/internal/harness"
	"emx/internal/labd"
	"emx/internal/obs"
	"emx/internal/proc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emxprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "bitonic", "workload for single-point mode: bitonic, fft, or spmv")
		p        = fs.Int("p", 2, "number of processors")
		n        = fs.Int("n", 8, "problem size (simulated elements)")
		h        = fs.Int("h", 2, "threads per PE")
		seed     = fs.Int64("seed", 7, "input seed")
		mode     = fs.String("mode", "bypass", "packet service mode: bypass (EM-X) or exu (EM-4)")
		fig      = fs.String("fig", "", "profile a whole figure panel instead of one point (see emxbench)")
		scale    = fs.Int("scale", harness.DefaultScale, "panel mode: divide the paper's problem sizes by this factor")
		workers  = fs.Int("workers", 0, "panel mode: parallel simulations (0 = GOMAXPROCS)")
		format   = fs.String("format", "report", "output: report, json, perfetto, or timeline (point mode only)")
		out      = fs.String("o", "", "write output to this file (default stdout)")
		slice    = fs.Int64("slice", 0, "add whole-machine time slices of this many cycles to the profile")
		capacity = fs.Int("capacity", 0, "per-point event ring capacity (0 = default)")
		diff     = fs.Bool("diff", false, "compare two profile JSON files given as arguments")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: emxprof [flags]")
		fmt.Fprintln(stderr, "       emxprof -diff a.prof b.prof")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "emxprof:", err)
			return 1
		}
		defer f.Close()
		dst = f
	}

	if *diff {
		return runDiff(fs.Args(), dst, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "emxprof: unexpected arguments %q (file arguments are only valid with -diff)\n", fs.Args())
		return 2
	}
	*format = strings.ToLower(*format)
	switch *format {
	case "report", "json", "perfetto", "timeline":
	default:
		fmt.Fprintf(stderr, "emxprof: unknown format %q (want report, json, perfetto, or timeline)\n", *format)
		return 2
	}
	if *format == "timeline" && *fig != "" {
		fmt.Fprintln(stderr, "emxprof: -format timeline draws one point; it cannot be combined with -fig")
		return 2
	}
	if *slice < 0 {
		fmt.Fprintf(stderr, "emxprof: -slice must be >= 0, got %d\n", *slice)
		return 2
	}
	opts := obs.Options{Capacity: *capacity, SliceCycles: *slice}

	if *fig != "" {
		return runPanel(*fig, *scale, *seed, *workers, opts, *format, dst, stderr)
	}
	return runPoint(*workload, *p, *n, *h, *seed, *mode, opts, *format, dst, stderr)
}

// runPoint profiles one directly-specified simulation point.
func runPoint(workload string, p, n, h int, seed int64, mode string, opts obs.Options, format string, dst io.Writer, stderr io.Writer) int {
	w, err := harness.ParseWorkload(strings.ToLower(workload))
	if err != nil {
		fmt.Fprintln(stderr, "emxprof:", err)
		return 2
	}
	if p < 1 || n < 1 || h < 1 {
		fmt.Fprintf(stderr, "emxprof: -p, -n, and -h must be >= 1 (got p=%d n=%d h=%d)\n", p, n, h)
		return 2
	}
	svc, err := proc.ParseServiceMode(mode)
	if err != nil {
		fmt.Fprintln(stderr, "emxprof:", err)
		return 2
	}
	if format == "timeline" {
		// Keep only thread events, so the whole ring holds lifecycle
		// transitions instead of sharing it with switch, packet and
		// network events.
		opts.Retain = obs.MaskOf(obs.CatThread)
	}
	pc := harness.NewProfileCollector(opts)
	ps := harness.PointSpec{Workload: w, P: p, SimN: n, H: h, Mode: svc, Seed: seed}
	if _, err := pc.RunPointObserved(ps); err != nil {
		fmt.Fprintln(stderr, "emxprof:", err)
		return 1
	}
	if format == "timeline" {
		fmt.Fprintf(dst, "%s: P=%d, n=%d, h=%d — thread timelines (cf. paper Figures 4/5)\n\n", w, p, n, h)
		pt := pc.Points()[0]
		if err := obs.WriteTimeline(dst, pt.Profile, pt.Events, pt.Names); err != nil {
			fmt.Fprintln(stderr, "emxprof:", err)
			return 1
		}
		return 0
	}
	return render(pc, format, dst, stderr)
}

// runPanel profiles every point of one emxbench figure panel and merges
// the result into a whole-panel profile.
func runPanel(fig string, scale int, seed int64, workers int, opts obs.Options, format string, dst io.Writer, stderr io.Writer) int {
	name := strings.ToLower(fig)
	if !harness.ValidPanel(name) {
		fmt.Fprintf(stderr, "emxprof: unknown figure %q\nvalid panels: %s\n",
			fig, strings.Join(harness.PanelNames(), ", "))
		return 2
	}
	if scale < 1 {
		fmt.Fprintf(stderr, "emxprof: -scale must be >= 1, got %d\n", scale)
		return 2
	}
	if workers < 0 {
		fmt.Fprintf(stderr, "emxprof: -workers must be >= 0, got %d\n", workers)
		return 2
	}
	pc := harness.NewProfileCollector(opts)
	sched := labd.New(labd.Options{Workers: workers})
	defer sched.Close()
	pr := harness.NewPanelRunner(harness.PanelOptions{
		Scale:   scale,
		Seed:    seed,
		Observe: pc,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "emxprof: "+format+"\n", args...)
		},
	}, sched)
	if _, err := pr.Panel(name); err != nil {
		fmt.Fprintln(stderr, "emxprof:", err)
		return 1
	}
	return render(pc, format, dst, stderr)
}

// render writes the collected profiles in the chosen format.
func render(pc *harness.ProfileCollector, format string, dst io.Writer, stderr io.Writer) int {
	var err error
	switch format {
	case "perfetto":
		err = pc.WriteTrace(dst)
	default:
		var merged *obs.Profile
		if merged, err = pc.Merged(); err == nil {
			if format == "json" {
				err = merged.WriteJSON(dst)
			} else {
				err = merged.WriteReport(dst)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "emxprof:", err)
		return 1
	}
	return 0
}

// runDiff renders the change between two saved profiles (A -> B).
func runDiff(files []string, dst io.Writer, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintf(stderr, "emxprof: -diff needs exactly two profile files, got %d\n", len(files))
		return 2
	}
	profs := make([]*obs.Profile, 2)
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "emxprof:", err)
			return 1
		}
		profs[i], err = obs.LoadProfile(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "emxprof: %s: %v\n", path, err)
			return 1
		}
	}
	if err := obs.WriteDiff(dst, profs[0], profs[1]); err != nil {
		fmt.Fprintln(stderr, "emxprof:", err)
		return 1
	}
	return 0
}
