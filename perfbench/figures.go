package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"emx/internal/harness"
	"emx/internal/labd"
	"emx/internal/metrics"
)

const (
	figScale   = 4096 // emxbench -scale of the regenerated panels
	figWorkers = 2    // scheduler workers per panel, as emxbench -workers 2
)

// figPanels are regenerated in this order, once each per round: 6b is
// communication-bound, 6d compute-bound.
var figPanels = []string{"6b", "6d"}

// panelRun is one panel regeneration.
type panelRun struct {
	wall   time.Duration
	cycles uint64
	hash   string
	stats  labd.Stats
	runs   []*metrics.Run // executed points, in a traced run
}

// recordingExec is the executor of a traced run: the scheduler, plus a
// record of every point that executes.
type recordingExec struct {
	sched *labd.Scheduler
	mu    sync.Mutex
	runs  []*metrics.Run
}

func (e *recordingExec) Do(key string, fn func() (*metrics.Run, error)) (*metrics.Run, labd.Source, error) {
	return e.sched.Do(key, func() (*metrics.Run, error) {
		run, err := fn()
		if err == nil {
			e.mu.Lock()
			e.runs = append(e.runs, run)
			e.mu.Unlock()
		}
		return run, err
	})
}

// regenerate builds one panel the way one emxbench invocation does: a
// fresh scheduler, a PanelRunner over it, and the panel's CSV hashed as
// emxbench -format csv prints it.
func regenerate(name string, seed int64, record bool) (panelRun, error) {
	sched := labd.New(labd.Options{Workers: figWorkers})
	defer sched.Close()
	var exec harness.Executor = sched
	rec := &recordingExec{sched: sched}
	if record {
		exec = rec
	}
	pr := harness.NewPanelRunner(harness.PanelOptions{Scale: figScale, Seed: seed}, exec)
	t0 := time.Now()
	figs, err := pr.Panel(name)
	wall := time.Since(t0)
	if err != nil {
		return panelRun{}, fmt.Errorf("panel %s: %w", name, err)
	}
	h := sha256.New()
	var cycles uint64
	for _, f := range figs {
		fmt.Fprintf(h, "# %s [%s]\n%s\n", f.Title, f.ID, f.CSV())
		cycles += f.SimCycles
	}
	return panelRun{
		wall: wall, cycles: cycles, hash: hex.EncodeToString(h.Sum(nil)),
		stats: sched.Stats(), runs: rec.runs,
	}, nil
}

// figureChecker checks panel hashes: against the pinned hash where the
// seed has one, and otherwise against the panel's first regeneration in
// this run (plus the Verify re-run, see verifyPanels).
type figureChecker struct {
	seed  int64
	first map[string]string
}

func (c *figureChecker) check(rep *report, name string, pr panelRun) {
	want, pinned := pinnedHashes[pinKey{c.seed, name}]
	if !pinned {
		if c.first[name] == "" {
			c.first[name] = pr.hash
		}
		want = c.first[name]
	}
	rep.op(pr.hash == want, "panel %s seed %d: sha256 %s, want %s (pinned %v)", name, c.seed, pr.hash, want, pinned)
}

// verifyPanels re-runs one point of each panel with the workload
// self-check on: the correctness gate for seeds without pinned hashes.
func verifyPanels(rep *report, seed int64) {
	for _, sw := range []harness.Sweep{
		{Workload: harness.Bitonic, P: 64},
		{Workload: harness.FFT, P: 64},
	} {
		sw.Scale, sw.Seed = figScale, seed
		sw.PaperSizes = harness.DefaultSizes(sw.P)
		sw.Threads = harness.DefaultThreads
		ps := sw.Point(len(sw.PaperSizes)-1, len(sw.Threads)-1)
		ps.Verify = true
		_, err := harness.RunPoint(ps)
		rep.op(err == nil, "verify %s: %v", ps.Label(), err)
	}
}

// figSetup starts the scheduler a panel runs on and pushes one small 6b
// point through it, so lazy runtime set-up (heap growth, first
// allocations of a machine) is done before timing.
func figSetup(seed int64) (struct{}, error) {
	sched := labd.New(labd.Options{Workers: figWorkers})
	defer sched.Close()
	sw := harness.Sweep{
		Workload: harness.Bitonic, P: 64, Scale: figScale, Seed: seed,
		PaperSizes: harness.DefaultSizes(64), Threads: harness.DefaultThreads,
	}
	ps := sw.Point(len(sw.PaperSizes)-1, 0)
	_, _, err := sched.Do(ps.Key(figScale), func() (*metrics.Run, error) { return harness.RunPoint(ps) })
	return struct{}{}, err
}

func runFigures(b *bench) error {
	rep := b.rep
	if _, err := setUp(b, func() (struct{}, error) { return figSetup(b.seed) }, func(struct{}) {}); err != nil {
		return err
	}
	chk := &figureChecker{seed: b.seed, first: map[string]string{}}
	var clk *simClock // the host-speed reference, untraced runs only
	if !b.traced {
		clk = newSimClock(figWorkers, simRefEvents)
		if err := clk.burst(); err != nil { // warm-up, not counted
			return err
		}
		clk.times = nil
	}

	// round regenerates every panel once, an untraced run timing the
	// simulator reference before each.
	round := func(record bool) ([]panelRun, error) {
		var out []panelRun
		for _, name := range figPanels {
			if clk != nil {
				if err := clk.burst(); err != nil {
					return nil, err
				}
			}
			pr, err := regenerate(name, b.seed, record)
			if err != nil {
				return nil, err
			}
			chk.check(rep, name, pr)
			out = append(out, pr)
		}
		return out, nil
	}
	// rounds runs rounds while another one of the mean length so far
	// fits in the measuring time, at least one.
	rounds := func(record bool) ([][]panelRun, error) {
		var all [][]panelRun
		t0 := time.Now()
		stop := t0.Add(b.seconds)
		for len(all) == 0 || time.Now().Add(time.Since(t0)/time.Duration(len(all))).Before(stop) {
			r, err := round(record)
			if err != nil {
				return nil, err
			}
			all = append(all, r)
		}
		return all, nil
	}

	if b.traced {
		if err := traceFigures(b, round, rounds); err != nil {
			return err
		}
	} else {
		all, err := rounds(false)
		if err != nil {
			return err
		}
		reportRounds(rep, all)
		// Means, like the panel times: see reportRounds.
		rep.atRefSpeed(ratio(clk.nominal, mean(clk.times)), "primary_ms", "secondary_ms", "throughput_per_s")
		rep.detail["ref_ms"] = clk.times
	}
	if !hasPins(b.seed) {
		verifyPanels(rep, b.seed)
	}
	return nil
}

// reportRounds reports the panels' wall times (6b primary, 6d
// secondary) and the simulated cycles per host second over all panels.
// The end-to-end panel times are means over the run's three or four
// rounds, not medians: over ten runs of the same code, the median 6b
// time spread 11.7% (quartile distance over median) and the mean 7.3%.
func reportRounds(rep *report, all [][]panelRun) {
	walls := make([][]float64, len(figPanels))
	var cycles uint64
	var wall time.Duration
	for _, r := range all {
		for i, pr := range r {
			walls[i] = append(walls[i], msf(pr.wall))
			cycles += pr.cycles
			wall += pr.wall
		}
	}
	rep.timing("primary", summarize(walls[0]))
	rep.timing("secondary", summarize(walls[1]))
	rep.set("primary_ms", mean(walls[0]))
	rep.set("secondary_ms", mean(walls[1]))
	rep.set("throughput_per_s", float64(cycles)/wall.Seconds())
	rep.detail["rounds"] = len(all)
	rep.detail["panel_ms"] = walls
}

// traceFigures is the figures workload's traced run: one untraced round
// for the tracing-overhead baseline, then rounds with every executed
// point recorded, under the CPU profiler. Exact counts come from the
// first traced round, so they repeat from run to run.
func traceFigures(b *bench, round func(bool) ([]panelRun, error), rounds func(bool) ([][]panelRun, error)) error {
	rep := b.rep
	base, err := round(false)
	if err != nil {
		return err
	}
	var (
		all    [][]panelRun
		m0, m1 runtime.MemStats
	)
	shares, err := profileCPU(func() error {
		runtime.ReadMemStats(&m0)
		var err error
		all, err = rounds(true)
		runtime.ReadMemStats(&m1)
		return err
	})
	if err != nil {
		return err
	}
	shares.set(rep)
	reportRounds(rep, all)

	var sc simCounts
	distinct := map[string]bool{}
	exec := 0
	for _, pr := range all[0] {
		for _, r := range pr.runs {
			sc.add(r)
			exec++
			distinct[fmt.Sprintf("%s/%d/%d/%d", r.Label, r.P, r.H, r.N)] = true
		}
	}
	sc.set(rep)
	rep.set("labd.exec", float64(exec))
	rep.set("labd.exec_distinct", float64(len(distinct)))
	rep.set("labd.useful_exec_ratio", ratio(float64(len(distinct)), float64(exec)))

	var (
		pointS       []float64
		hostS, wallS float64
		events       uint64
		st           labd.Stats
		roundWall    []float64
		panels       int
	)
	for _, r := range all {
		var w float64
		for _, pr := range r {
			panels++
			w += pr.wall.Seconds()
			for _, run := range pr.runs {
				pointS = append(pointS, run.HostElapsedSecs)
				hostS += run.HostElapsedSecs
				events += run.SimEvents
			}
			st.CacheHits += pr.stats.CacheHits
			st.Coalesced += pr.stats.Coalesced
			st.Filled += pr.stats.Filled
			st.Rejected += pr.stats.Rejected + pr.stats.ShedDeadline + pr.stats.ShedAbandoned + pr.stats.ShedCanceled
		}
		wallS += w
		roundWall = append(roundWall, w)
	}
	pt := summarize(pointS)
	rep.set("harness.point_s_p50", pt.P50)
	rep.set("harness.point_s_max", pt.Tail)
	rep.detail["harness.point_s_max.q"] = pt.TailQ
	rep.set("labd.worker_busy_ratio", ratio(hostS, figWorkers*wallS))
	rep.set("sim.ns_per_event", 1e9*ratio(hostS, float64(events)))
	rep.set("labd.exec_ms_mean", 1000*ratio(hostS, float64(len(pointS))))
	rep.set("labd.cache_hits", float64(st.CacheHits))
	rep.set("labd.coalesced", float64(st.Coalesced))
	rep.set("labd.filled", float64(st.Filled))
	rep.set("labd.shed", float64(st.Rejected))
	runtimeMetrics(rep, &m0, &m1, panels)

	baseWall := 0.0
	for _, pr := range base {
		baseWall += pr.wall.Seconds()
	}
	rep.set("trace.overhead_pct", 100*(median(roundWall)/baseWall-1))

	// The serving layers do nothing here.
	for _, name := range []string{
		"labd.queue_wait_ms",
		"service.pre_write_ms_p50", "service.encode_ms_p50", "service.encode_ms_p99", "service.resp_bytes_mean",
		"repl.pushes", "repl.push_errors", "repl.stores", "repl.queue_drops", "repl.fills",
		"repl.fill_misses", "repl.digest_mismatches", "repl.put_handler_ms", "repl.get_handler_ms",
		"gateway.handler_ms_p50", "gateway.self_ms", "cluster.retries", "cluster.failovers", "cluster.hedges",
		"http.gateway_conns_per_1k", "http.node_conns_per_1k", "gen.late_p99_ms", "gen.late_max_ms", "gen.knee_rps",
	} {
		rep.set(name, 0)
	}
	return nil
}
