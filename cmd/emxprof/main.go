// Command emxprof is the cycle-accounting profiler for the simulated
// EM-X: it runs a workload with the obs tracer attached and renders
// where every processor's cycles went — run, switch, spill, service,
// idle — with switch counts decomposed by cause, the same accounting
// behind the paper's Figures 8-11. For one point it also draws the
// per-thread execution timelines of the paper's Figures 4 and 5.
//
// It is the one panel profiler: -fig profiles the points emxbench
// renders for that panel, with the same sweep seed (1 unless -seed is
// given), and -fig all traces every panel. A merged profile sums the
// PEs of one machine size, so -fig all takes only -format perfetto.
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
//	emxprof -fig all -format perfetto -o all.trace.json # every panel, one trace
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
		seed     = fs.Int64("seed", 7, "input seed (panel mode defaults to 1, the seed the figures sweep)")
		mode     = fs.String("mode", "bypass", "packet service mode: bypass (EM-X) or exu (EM-4)")
		fig      = fs.String("fig", "", "profile a whole figure panel instead of one point, or 'all' with -format perfetto")
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

	if *diff {
		return runDiff(fs.Args(), *out, stdout, stderr)
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

	var emit func(io.Writer) error
	if *fig != "" {
		// A panel profiles the figure's own points: with no -seed, it
		// sweeps seed 1, as emxbench, emxd and perfbench do.
		seedSet := false
		fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if !seedSet {
			*seed = 1
		}
		emit = panelProfile(*fig, *scale, *seed, *workers, opts, *format, stderr)
	} else {
		emit = pointProfile(*workload, *p, *n, *h, *seed, *mode, opts, *format, stderr)
	}
	if emit == nil {
		return 2
	}
	return writeOutput(*out, stdout, stderr, emit)
}

// pointProfile validates one directly-specified simulation point and
// returns the function that profiles it and writes the chosen format,
// or nil after reporting an invalid point.
func pointProfile(workload string, p, n, h int, seed int64, mode string, opts obs.Options, format string, stderr io.Writer) func(io.Writer) error {
	w, err := harness.ParseWorkload(strings.ToLower(workload))
	if err != nil {
		fmt.Fprintln(stderr, "emxprof:", err)
		return nil
	}
	if p < 1 || n < 1 || h < 1 {
		fmt.Fprintf(stderr, "emxprof: -p, -n, and -h must be >= 1 (got p=%d n=%d h=%d)\n", p, n, h)
		return nil
	}
	svc, err := proc.ParseServiceMode(mode)
	if err != nil {
		fmt.Fprintln(stderr, "emxprof:", err)
		return nil
	}
	if format == "timeline" {
		// Keep only thread events, so the whole ring holds lifecycle
		// transitions instead of sharing it with switch, packet and
		// network events.
		opts.Retain = obs.MaskOf(obs.CatThread)
	}
	ps := harness.PointSpec{Workload: w, P: p, SimN: n, H: h, Mode: svc, Seed: seed}
	return func(dst io.Writer) error {
		pc := harness.NewProfileCollector(opts)
		if _, err := pc.RunPointObserved(ps); err != nil {
			return err
		}
		if format != "timeline" {
			return render(pc, format, dst)
		}
		fmt.Fprintf(dst, "%s: P=%d, n=%d, h=%d — thread timelines (cf. paper Figures 4/5)\n\n", w, p, n, h)
		pt := pc.Points()[0]
		return obs.WriteTimeline(dst, pt.Profile, pt.Events, pt.Names)
	}
}

// panelProfile validates a figure panel, or "all", and returns the
// function that profiles every point of it through one PanelRunner, so
// a sweep that several panels share runs once; nil after reporting an
// invalid request.
func panelProfile(fig string, scale int, seed int64, workers int, opts obs.Options, format string, stderr io.Writer) func(io.Writer) error {
	name := strings.ToLower(fig)
	names := []string{name}
	switch {
	case name == "all" && format != "perfetto":
		// Panels differ in machine size, and a merged profile sums the
		// PEs of one size; a Perfetto trace needs no merge.
		fmt.Fprintf(stderr, "emxprof: -format %s merges one panel (-fig all spans machine sizes; use -format perfetto)\n", format)
		return nil
	case name == "all":
		names = harness.PanelNames()
	case !harness.ValidPanel(name):
		fmt.Fprintf(stderr, "emxprof: unknown figure %q\nvalid panels: all, %s\n",
			fig, strings.Join(harness.PanelNames(), ", "))
		return nil
	}
	if scale < 1 {
		fmt.Fprintf(stderr, "emxprof: -scale must be >= 1, got %d\n", scale)
		return nil
	}
	if workers < 0 {
		fmt.Fprintf(stderr, "emxprof: -workers must be >= 0, got %d\n", workers)
		return nil
	}
	return func(dst io.Writer) error {
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
		for _, name := range names {
			if _, err := pr.Panel(name); err != nil {
				return err
			}
		}
		return render(pc, format, dst)
	}
}

// render writes the collected profiles in the chosen format.
func render(pc *harness.ProfileCollector, format string, dst io.Writer) error {
	if format == "perfetto" {
		return pc.WriteTrace(dst)
	}
	merged, err := pc.Merged()
	if err != nil {
		return err
	}
	if format == "json" {
		return merged.WriteJSON(dst)
	}
	return merged.WriteReport(dst)
}

// runDiff renders the change between two saved profiles (A -> B).
func runDiff(files []string, out string, stdout, stderr io.Writer) int {
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
	return writeOutput(out, stdout, stderr, func(dst io.Writer) error {
		return obs.WriteDiff(dst, profs[0], profs[1])
	})
}

// writeOutput runs emit into the -o file, or stdout when out is empty.
// The file is created only here, after the flags and any -diff inputs
// were read, so a rejected run leaves an existing file untouched.
func writeOutput(out string, stdout, stderr io.Writer, emit func(io.Writer) error) int {
	var err error
	if out == "" {
		err = emit(stdout)
	} else {
		var f *os.File
		if f, err = os.Create(out); err == nil {
			err = emit(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "emxprof:", err)
		return 1
	}
	return 0
}
