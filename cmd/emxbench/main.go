// Command emxbench regenerates the paper's evaluation figures on the
// simulated EM-X: Figure 6 (communication time), Figure 7 (overlap
// efficiency), Figure 8 (execution-time distribution), Figure 9 (switch
// counts), plus the ablations (EM-4 servicing, block reads) and the
// analytic-model comparison.
//
// Sweeps execute through the labd scheduler — the same pooling,
// coalescing, and caching path the emxd daemon serves — either
// in-process (the default) or against a running daemon via -remote,
// where repeated panels are cache hits.
//
// Usage:
//
//	emxbench -fig 6b                      # one panel
//	emxbench -fig all -format csv         # everything, machine-readable
//	emxbench -fig 7d -scale 256           # larger simulated sizes
//	emxbench -fig all -format json        # benchmark snapshot (BENCH_<date>.json)
//	emxbench -fig 6b -remote http://host:8484   # run on an emxd daemon
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"emx/internal/cluster"
	"emx/internal/harness"
	"emx/internal/labd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Snapshot is the -format json output: every requested panel with its
// simulated-cycle total, suitable for committing as BENCH_<date>.json
// to track the perf trajectory. Panels are byte-identical across reruns
// with the same flags (no timestamps; the simulator is deterministic);
// the host block is the one deliberately non-deterministic part — it
// measures how fast this host ran the simulations, not what they
// computed.
type Snapshot struct {
	Paper string     `json:"paper"`
	Scale int        `json:"scale"`
	Seed  int64      `json:"seed"`
	Host  *HostStats `json:"host,omitempty"`
	// Fig6bP64 repeats the host block when the invocation rendered
	// exactly the 6b panel (bitonic, P=64) — the pinned simulator
	// throughput number BENCH_*.json tracks.
	Fig6bP64 *HostStats       `json:"fig6b_p64,omitempty"`
	Panels   []harness.Figure `json:"panels"`
}

// HostStats is the simulator's host throughput for one emxbench
// invocation: simulated cycles and engine events per wall-clock second.
// Only present for in-process runs (-remote has its own host; query its
// /v1/status instead). WallSeconds spans panel generation end to end,
// so CyclesPerSecond reflects whole-machine throughput including
// worker parallelism; HostRunSeconds sums per-run time across workers.
type HostStats struct {
	GoMaxProcs      int     `json:"gomaxprocs"`
	Workers         int     `json:"workers"`
	WallSeconds     float64 `json:"wall_seconds"`
	SimCycles       uint64  `json:"sim_cycles_total"`
	SimEvents       uint64  `json:"sim_events_total"`
	HostRunSeconds  float64 `json:"host_run_seconds_total"`
	CyclesPerSecond float64 `json:"sim_cycles_per_second"`
	EventsPerSecond float64 `json:"sim_events_per_second"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig       = fs.String("fig", "all", "panel to regenerate, or 'all'")
		scale     = fs.Int("scale", harness.DefaultScale, "divide the paper's problem sizes by this factor")
		format    = fs.String("format", "table", "output: table, csv, chart, or json")
		workers   = fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		seed      = fs.Int64("seed", 1, "input generator seed")
		remote    = fs.String("remote", "", "comma-separated base URLs of running emxd nodes or an emxcluster gateway (empty: run in-process)")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		profile   = fs.String("profile", "", "write a merged emxprof cycle-accounting profile (JSON) to this file")
		tracefile = fs.String("tracefile", "", "write a Perfetto trace of every simulated point to this file")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: emxbench [flags]")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "valid panels: all, %s\n", strings.Join(harness.PanelNames(), ", "))
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	name := strings.ToLower(*fig)
	if name != "all" && !harness.ValidPanel(name) {
		fmt.Fprintf(stderr, "emxbench: unknown figure %q\nvalid panels: all, %s\n",
			*fig, strings.Join(harness.PanelNames(), ", "))
		return 2
	}
	if *scale < 1 {
		fmt.Fprintf(stderr, "emxbench: -scale must be >= 1, got %d\n", *scale)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "emxbench: -workers must be >= 0, got %d\n", *workers)
		return 2
	}
	var render func(harness.Figure) string
	// Normalize so "-format JSON" works; anything else is rejected with
	// the valid choices spelled out rather than silently defaulting.
	*format = strings.ToLower(strings.TrimSpace(*format))
	switch *format {
	case "table":
		render = func(f harness.Figure) string { return f.Table() }
	case "csv":
		render = func(f harness.Figure) string { return fmt.Sprintf("# %s [%s]\n%s", f.Title, f.ID, f.CSV()) }
	case "chart":
		render = func(f harness.Figure) string { return f.Chart(16) }
	case "json":
		render = nil // collected into one Snapshot below
	default:
		fmt.Fprintf(stderr, "emxbench: unknown format %q (want table, csv, chart, or json)\n", *format)
		return 2
	}

	names := []string{name}
	if name == "all" {
		names = harness.PanelNames()
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(stderr, "emxbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "emxbench:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memprof, stderr)

	// observe is non-nil when any emxprof output was requested; it makes
	// the run cache-less so every point executes and yields a profile.
	var observe *harness.ProfileCollector
	if *profile != "" || *tracefile != "" {
		if *remote != "" {
			fmt.Fprintln(stderr, "emxbench: -profile/-tracefile require an in-process run (use emxd's /v1/profile against -remote)")
			return 2
		}
		observe = harness.NewProfileCollector(harness.ObsOptions{})
	}

	// sched is non-nil only for in-process runs; it supplies the host
	// throughput counters for the JSON snapshot.
	var (
		sched *labd.Scheduler
		panel func(string) ([]harness.Figure, error)
	)
	if *remote != "" {
		panel = remotePanels(*remote, *scale, *seed)
	} else {
		sched, panel = localPanels(*scale, *seed, *workers, observe, stderr)
		defer sched.Close()
	}

	start := time.Now() //emx:hostclock wall-clock panel timing for the snapshot header
	var collected []harness.Figure
	for _, n := range names {
		figs, err := panel(n)
		if err != nil {
			fmt.Fprintln(stderr, "emxbench:", err)
			return 1
		}
		for _, f := range figs {
			if render != nil {
				fmt.Fprintln(stdout, render(f))
			} else {
				collected = append(collected, f)
			}
		}
	}
	wall := time.Since(start).Seconds() //emx:hostclock
	if render == nil {
		snap := Snapshot{
			Paper:  "EM-X (SPAA 1997)",
			Scale:  *scale,
			Seed:   *seed,
			Panels: collected,
		}
		if sched != nil {
			snap.Host = hostStats(sched.Stats(), wall)
			if name == "6b" {
				snap.Fig6bP64 = snap.Host
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(stderr, "emxbench:", err)
			return 1
		}
	}
	if observe != nil {
		if err := writeProfiles(observe, *profile, *tracefile, stderr); err != nil {
			fmt.Fprintln(stderr, "emxbench:", err)
			return 1
		}
	}
	return 0
}

// writeProfiles emits the collected emxprof artifacts and a greppable
// summary line (CI asserts dropped=0 on it).
func writeProfiles(pc *harness.ProfileCollector, profilePath, tracePath string, stderr io.Writer) error {
	merged, err := pc.Merged()
	if err != nil {
		return err
	}
	if profilePath != "" {
		if err := writeTo(profilePath, merged.WriteJSON); err != nil {
			return err
		}
	}
	if tracePath != "" {
		if err := writeTo(tracePath, pc.WriteTrace); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "emxbench: profile: points=%d recorded=%d retained=%d dropped=%d\n",
		merged.Points, merged.Recorded, merged.Retained, merged.TotalDropped())
	return nil
}

// writeTo streams one artifact into path, creating or truncating it.
func writeTo(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostStats derives the snapshot's host block from the scheduler's
// throughput counters and the measured wall time.
func hostStats(st labd.Stats, wall float64) *HostStats {
	h := &HostStats{
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Workers:        st.Workers,
		WallSeconds:    wall,
		SimCycles:      st.SimCycles,
		SimEvents:      st.SimEvents,
		HostRunSeconds: st.HostSeconds,
	}
	if wall > 0 {
		h.CyclesPerSecond = float64(st.SimCycles) / wall
		h.EventsPerSecond = float64(st.SimEvents) / wall
	}
	return h
}

// writeMemProfile records the heap profile after a final GC, so live
// allocations dominate over garbage.
func writeMemProfile(path string, stderr io.Writer) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "emxbench:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(stderr, "emxbench:", err)
	}
}

// localPanels builds panels in-process through a transient labd
// scheduler, exactly the execution path emxd serves. The caller owns
// the scheduler and must Close it.
func localPanels(scale int, seed int64, workers int, observe *harness.ProfileCollector, stderr io.Writer) (*labd.Scheduler, func(string) ([]harness.Figure, error)) {
	// A cache hit skips point execution, and a skipped point yields no
	// profile — so observed runs disable the cache (coalescing still
	// dedupes concurrent duplicates, which do share one observation).
	sched := labd.New(labd.Options{Workers: workers, NoCache: observe != nil})
	pr := harness.NewPanelRunner(harness.PanelOptions{
		Scale:   scale,
		Seed:    seed,
		Observe: observe,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "emxbench: "+format+"\n", args...)
		},
	}, sched)
	return sched, pr.Panel
}

// remotePanels requests panels from running emxd nodes (or an
// emxcluster gateway) through the failover-aware cluster client: with
// several comma-separated URLs, panels spread across the nodes by
// rendezvous hashing and a dead node's panels fail over to its peers —
// byte-identically, since runs are deterministic.
func remotePanels(remotes string, scale int, seed int64) func(string) ([]harness.Figure, error) {
	var urls []string
	for _, u := range strings.Split(remotes, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			urls = append(urls, u)
		}
	}
	m := cluster.NewMembership(urls, cluster.MembershipOptions{})
	c := cluster.NewClient(m, cluster.ClientOptions{})
	return func(name string) ([]harness.Figure, error) {
		figs, err := c.Figure(name, scale, seed)
		if err != nil {
			return nil, fmt.Errorf("remote: %w", err)
		}
		return figs, nil
	}
}
