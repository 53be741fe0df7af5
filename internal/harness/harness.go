// Package harness runs the paper's experiments: parameter sweeps over
// workload, machine size, problem size, and thread count, executed in
// parallel across host cores (each point is an independent deterministic
// simulation), and turns the measurements into the series behind the
// paper's Figures 6-9 plus the ablation studies.
//
// Problem sizes are geometry-preserving scale-downs of the paper's (see
// DESIGN.md): a sweep carries both the paper-equivalent label (e.g. "8M")
// and the simulated size. The curve shapes depend on the per-thread chunk
// size relative to latency and run length, which the scaling preserves.
package harness

import (
	"fmt"
	"math"
	"sync"
	"time"

	"emx/internal/apps/bitonic"
	"emx/internal/apps/fft"
	"emx/internal/apps/spmv"
	"emx/internal/core"
	"emx/internal/labd"
	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/proc"
	"emx/internal/sim"
	"emx/internal/thread"
)

// Workload selects the application under measurement.
type Workload uint8

const (
	// Bitonic is multithreaded bitonic sorting (Section 3.1).
	Bitonic Workload = iota
	// FFT is the multithreaded Fast Fourier Transform (Section 3.2).
	FFT
	// SpMV is the irregular sparse matrix-vector workload (the paper's
	// conclusion's proposed target; extension X-irr).
	SpMV
)

func (w Workload) String() string {
	switch w {
	case Bitonic:
		return "bitonic"
	case FFT:
		return "fft"
	case SpMV:
		return "spmv"
	}
	return "workload(?)"
}

// ParseWorkload maps a workload name ("bitonic", "fft", "spmv") back to
// its Workload, as used by the emxd request API and CLI flags.
func ParseWorkload(name string) (Workload, error) {
	for _, w := range []Workload{Bitonic, FFT, SpMV} {
		if w.String() == name {
			return w, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown workload %q (want bitonic, fft, or spmv)", name)
}

// K and M are the element-count units of the paper's size labels.
const (
	K = 1 << 10
	M = 1 << 20
)

// DefaultScale divides the paper's problem sizes for simulation. 512
// keeps the largest point (8M) at 16K simulated elements — minutes of
// host time for a full figure on one core.
const DefaultScale = 512

// DefaultThreads is the x-axis of every figure: the paper sweeps 1-16
// threads per processor.
var DefaultThreads = []int{1, 2, 4, 6, 8, 10, 12, 14, 16}

// DefaultSizes returns the paper's data sizes for a machine size:
// 128K-2M elements for P=16 (Figure 6a/6c) and 512K-8M for P=64
// (Figure 6b/6d), largest first as in the paper's legends.
func DefaultSizes(p int) []int {
	if p <= 16 {
		return []int{2 * M, 1 * M, 512 * K, 256 * K, 128 * K}
	}
	return []int{8 * M, 4 * M, 2 * M, 1 * M, 512 * K}
}

// SizeLabel formats an element count the way the paper's legends do.
func SizeLabel(n int) string {
	switch {
	case n >= M:
		return fmt.Sprintf("%gM", float64(n)/M)
	case n >= K:
		return fmt.Sprintf("%gK", float64(n)/K)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// PointSpec is one simulation to run.
type PointSpec struct {
	Workload  Workload
	P         int
	SimN      int // elements actually simulated
	PaperN    int // paper-equivalent size this point stands for
	H         int
	Mode      proc.ServiceMode
	BlockRead bool // bitonic only: block-read ablation
	ReplyHigh bool // resume-first scheduling: replies use the high-priority FIFO
	Seed      int64
	Verify    bool // run the workload's self-check (off in sweeps)
}

// config builds the machine configuration a point runs on; it is the
// single source of truth for both execution and the point's identity.
func (ps PointSpec) config() core.Config {
	cfg := core.DefaultConfig(ps.P)
	cfg.Proc.Mode = ps.Mode
	if ps.ReplyHigh {
		cfg.Proc.ReplyPrio = thread.High
	}
	cfg.MaxCycles = sim.Time(1) << 40
	return cfg
}

// Identity canonicalizes the point into the content-addressed run
// identity the labd scheduler caches and coalesces on. It covers only
// what reaches the simulator: PaperN is a label, so two points that
// differ only in PaperN share one identity.
func (ps PointSpec) Identity() core.RunIdentity {
	sched := "fifo"
	if ps.ReplyHigh {
		sched = "resume-first"
	}
	return core.RunIdentity{
		Workload:  ps.Workload.String(),
		P:         ps.P,
		H:         ps.H,
		SimN:      ps.SimN,
		Seed:      ps.Seed,
		Service:   ps.Mode.String(),
		Sched:     sched,
		BlockRead: ps.BlockRead,
		Verify:    ps.Verify,
		Config:    ps.config().Fingerprint(),
	}
}

// Key returns the point's content hash — its cache key. The scale
// argument no longer affects the key (its effect is already in SimN);
// it stays so existing callers keep compiling.
func (ps PointSpec) Key(scale int) string { return ps.Identity().Hash() }

// Label formats the point's identity for humans — profile reports and
// trace process names.
func (ps PointSpec) Label() string {
	n := ps.PaperN
	if n == 0 {
		n = ps.SimN
	}
	return fmt.Sprintf("%s P=%d n=%s h=%d %s", ps.Workload, ps.P, SizeLabel(n), ps.H, ps.Mode)
}

// Validate reports whether the point's workload can run it (P a power
// of two for bitonic and FFT, N divisible by P for SpMV, ...), without
// running it: the check each workload makes when it starts.
func (ps PointSpec) Validate() error {
	cfg := ps.config()
	switch ps.Workload {
	case Bitonic:
		return bitonic.Params{N: ps.SimN, H: ps.H}.Validate(cfg)
	case FFT:
		return fft.Params{N: ps.SimN, H: ps.H}.Validate(cfg)
	case SpMV:
		return spmv.Params{N: ps.SimN, H: ps.H, Iterations: spmvIterations}.Validate(cfg)
	}
	return fmt.Errorf("harness: unknown workload %d", ps.Workload)
}

// spmvIterations is the SpMV iteration count of every point.
const spmvIterations = 2

// RunPoint executes one simulation point. Besides the simulated
// measurements it records the host wall-clock time the point took
// (Run.HostElapsedSecs) — the numerator of the simulator's
// cycles-per-second throughput, tracked in BENCH_*.json. Host timing is
// observational only: it never feeds back into the simulation, so
// results stay bit-identical across hosts.
func RunPoint(ps PointSpec) (*metrics.Run, error) { return runPoint(ps, nil) }

// runPoint is RunPoint with an optional tracer attached to the machine.
// The tracer only observes (it never charges cycles), so observed and
// unobserved executions of the same point are cycle-identical; it is
// also deliberately not part of the point's identity or cache key.
func runPoint(ps PointSpec, tr *obs.Tracer) (*metrics.Run, error) {
	cfg := ps.config()
	start := time.Now() //emx:hostclock host throughput only, never simulated state
	var (
		run *metrics.Run
		err error
	)
	switch ps.Workload {
	case Bitonic:
		run, err = bitonic.Run(cfg, bitonic.Params{
			N: ps.SimN, H: ps.H, UseBlockRead: ps.BlockRead,
			Seed: ps.Seed, SkipVerify: !ps.Verify, Obs: tr,
		})
	case FFT:
		// Verification needs the full transform (AllStages); measurement
		// runs use only the first log2(P) iterations, as the paper does.
		run, err = fft.Run(cfg, fft.Params{
			N: ps.SimN, H: ps.H, Seed: ps.Seed,
			AllStages: ps.Verify, SkipVerify: !ps.Verify, Obs: tr,
		})
	case SpMV:
		run, err = spmv.Run(cfg, spmv.Params{
			N: ps.SimN, H: ps.H, Iterations: spmvIterations,
			Seed: ps.Seed, SkipVerify: !ps.Verify, Obs: tr,
		})
	default:
		return nil, fmt.Errorf("harness: unknown workload %d", ps.Workload)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %v P=%d N=%d H=%d: %w", ps.Workload, ps.P, ps.SimN, ps.H, err)
	}
	run.PaperN = ps.PaperN
	run.HostElapsedSecs = time.Since(start).Seconds() //emx:hostclock
	return run, nil
}

// Sweep describes a (size x thread-count) grid for one workload and
// machine size — the raw material of one Figure 6/7 panel and, at
// selected sizes, the Figure 8/9 panels.
type Sweep struct {
	Workload   Workload
	P          int
	PaperSizes []int
	Scale      int
	Threads    []int
	Mode       proc.ServiceMode
	BlockRead  bool
	ReplyHigh  bool
	Seed       int64

	// Observe, when non-nil, attaches a fresh tracer to every executed
	// simulation and collects the resulting cycle-accounting profiles:
	// one per distinct simulation, not one per grid cell, labelled by
	// the first cell (in size, thread order) that runs it. A point the
	// executor serves from its cache is not re-executed: with a
	// per-invocation executor, it was observed when it first ran.
	Observe *ProfileCollector `json:"-"`
}

// SweepResult holds the grid of runs: Runs[sizeIdx][threadIdx].
type SweepResult struct {
	Sweep
	Runs [][]*metrics.Run
}

// SimSize returns the simulated element count for a paper size, clamped
// so every PE keeps at least max(Threads) elements. The doubling stops
// before it can overflow, so an unvalidated P*H cannot make it spin.
func (s Sweep) SimSize(paperN int) int {
	n := paperN / s.Scale
	if n < 1 {
		n = 1
	}
	minN := s.P
	for _, h := range s.Threads {
		if s.P*h > minN {
			minN = s.P * h
		}
	}
	for n < minN && n <= math.MaxInt/2 {
		n *= 2
	}
	return n
}

// Executor runs one simulation point identified by a canonical content
// key, returning how the result was obtained. *labd.Scheduler is the
// production implementation; both the CLI and the emxd daemon execute
// sweeps through it, sharing one scheduling/caching path.
type Executor interface {
	Do(key string, fn func() (*metrics.Run, error)) (*metrics.Run, labd.Source, error)
}

// withDefaults fills the sweep's zero-value knobs.
func (s Sweep) withDefaults() Sweep {
	if s.Scale <= 0 {
		s.Scale = DefaultScale
	}
	if len(s.Threads) == 0 {
		s.Threads = DefaultThreads
	}
	if len(s.PaperSizes) == 0 {
		s.PaperSizes = DefaultSizes(s.P)
	}
	return s
}

// Point returns the fully resolved spec for one grid cell.
func (s Sweep) Point(si, hi int) PointSpec {
	paperN := s.PaperSizes[si]
	return PointSpec{
		Workload:  s.Workload,
		P:         s.P,
		SimN:      s.SimSize(paperN),
		PaperN:    paperN,
		H:         s.Threads[hi],
		Mode:      s.Mode,
		BlockRead: s.BlockRead,
		ReplyHigh: s.ReplyHigh,
		Seed:      s.Seed,
	}
}

// Run executes the sweep on a transient labd scheduler with the given
// worker bound (<=0 means GOMAXPROCS). Each grid point is an
// independent deterministic simulation, so results do not depend on
// scheduling.
func (s Sweep) Run(workers int) (*SweepResult, error) {
	sched := labd.New(labd.Options{Workers: workers})
	defer sched.Close()
	return s.RunOn(sched)
}

// RunOn executes the sweep through an Executor — the shared execution
// path of cmd/emxbench and the emxd daemon. Cells whose sizes clamp to
// one simulated n are one simulation: each distinct key is submitted
// once, concurrently, under the first cell (in size, thread order) that
// needs it, so the executor's worker pool bounds parallelism and its
// cache/coalescing deduplicate points shared with other figures. Every
// cell receives its own shallow copy of the result, stamped with the
// cell's PaperN; executor results may be shared and are never mutated.
func (s Sweep) RunOn(exec Executor) (*SweepResult, error) {
	s = s.withDefaults()
	res := &SweepResult{Sweep: s, Runs: make([][]*metrics.Run, len(s.PaperSizes))}
	for i := range res.Runs {
		res.Runs[i] = make([]*metrics.Run, len(s.Threads))
	}

	type cell struct{ si, hi int }
	type group struct {
		key   string
		ps    PointSpec // the representative: the group's first cell
		cells []cell
	}
	var groups []*group
	byKey := map[string]*group{}
	for si := range s.PaperSizes {
		for hi := range s.Threads {
			ps := s.Point(si, hi)
			key := ps.Identity().Hash()
			g := byKey[key]
			if g == nil {
				g = &group{key: key, ps: ps}
				byKey[key] = g
				groups = append(groups, g)
			}
			g.cells = append(g.cells, cell{si, hi})
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			ps := g.ps
			run, _, err := exec.Do(g.key, func() (*metrics.Run, error) {
				if s.Observe != nil {
					return s.Observe.RunPointObserved(ps)
				}
				return RunPoint(ps)
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for _, c := range g.cells {
				r := *run
				r.PaperN = s.PaperSizes[c.si]
				res.Runs[c.si][c.hi] = &r
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// ThreadIndex returns the position of thread count h, or -1.
func (r *SweepResult) ThreadIndex(h int) int {
	for i, t := range r.Threads {
		if t == h {
			return i
		}
	}
	return -1
}

// SizeIndex returns the position of the paper size n, or -1.
func (r *SweepResult) SizeIndex(paperN int) int {
	for i, n := range r.PaperSizes {
		if n == paperN {
			return i
		}
	}
	return -1
}
