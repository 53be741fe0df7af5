// Package spmv implements a distributed sparse matrix-vector
// multiplication on the simulated EM-X — the "irregular computation
// behavior and moderate parallelism" workload the paper's conclusion
// names as the logical next target for fine-grain multithreading.
//
// The n x n sparse matrix is distributed by rows (blocked), as is the
// dense vector. Computing y = A*x, a thread walks its rows' nonzeros;
// every nonzero whose column falls outside the local block is a
// fine-grain split-phase remote read of one vector word. Unlike bitonic
// sorting there is no ordering constraint between threads (full thread
// computation parallelism), and unlike FFT the run length between reads
// is short and variable — per-row nonzero counts and column positions are
// deterministic pseudo-random, so both computation and communication are
// irregular and per-PE load is imbalanced.
//
// The expectation, borne out by the measurements (experiment X-irr in
// DESIGN.md): overlap efficiency lands between sorting's and FFT's, with
// imbalance-driven barrier waits bounding it below FFT's.
package spmv

import (
	"fmt"
	"math"
	"math/rand"

	"emx/internal/core"
	"emx/internal/dist"
	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/sim"
)

// Cost model constants (cycles).
const (
	// RowSetupCycles covers row-pointer loads and loop setup per row.
	RowSetupCycles sim.Time = 6
	// MACCycles is the multiply-accumulate per nonzero (float32 multiply,
	// add, index arithmetic).
	MACCycles sim.Time = 8
	// LocalGatherCycles is the cost of fetching a locally-resident vector
	// element (no packet).
	LocalGatherCycles sim.Time = 2
)

// Params configures one run.
type Params struct {
	// N is the matrix dimension (rows); must be divisible by P and >= P*H.
	N int
	// H is the number of threads per PE.
	H int
	// MinNNZ and MaxNNZ bound the per-row nonzero count; the actual count
	// varies pseudo-randomly per row (the irregularity).
	MinNNZ, MaxNNZ int
	// Iterations of y = A*x (x is refreshed from y between iterations).
	Iterations int
	// Seed drives matrix structure, values, and the input vector.
	Seed int64
	// SkipVerify disables the check against a direct computation.
	SkipVerify bool
	// Tracer, when non-nil, receives thread lifecycle events.
	Tracer func(core.TraceEvent)
	// Obs, when non-nil, is attached to the machine for cycle-accounting
	// profiles and structured traces (emxprof). Must be sized for cfg.P.
	Obs *obs.Tracer
}

func (p Params) withDefaults() Params {
	if p.MinNNZ == 0 && p.MaxNNZ == 0 {
		p.MinNNZ, p.MaxNNZ = 2, 16
	}
	if p.Iterations == 0 {
		p.Iterations = 1
	}
	return p
}

// Validate checks parameter consistency against a machine configuration.
func (p Params) Validate(cfg core.Config) error {
	p = p.withDefaults()
	if p.N <= 0 || p.N%cfg.P != 0 {
		return fmt.Errorf("spmv: N=%d must be positive and divisible by P=%d", p.N, cfg.P)
	}
	if p.H < 1 || p.N < cfg.P*p.H {
		return fmt.Errorf("spmv: need a nonempty row chunk per thread (N=%d, P*H=%d)", p.N, cfg.P*p.H)
	}
	if p.MinNNZ < 1 || p.MaxNNZ < p.MinNNZ || p.MaxNNZ > p.N {
		return fmt.Errorf("spmv: bad nnz bounds [%d,%d]", p.MinNNZ, p.MaxNNZ)
	}
	if p.Iterations < 1 {
		return fmt.Errorf("spmv: iterations must be >= 1")
	}
	return nil
}

// matrix is the CSR-ish structure, kept in Go shadow state; the vector
// lives in simulated memory (it is what moves over the network).
type matrix struct {
	rowCols [][]int
	rowVals [][]float32
}

// buildMatrix generates the deterministic irregular structure.
func buildMatrix(n int, minNNZ, maxNNZ int, rng *rand.Rand) *matrix {
	m := &matrix{
		rowCols: make([][]int, n),
		rowVals: make([][]float32, n),
	}
	for r := 0; r < n; r++ {
		nnz := minNNZ + rng.Intn(maxNNZ-minNNZ+1)
		cols := make([]int, 0, nnz)
		seen := map[int]bool{}
		for len(cols) < nnz {
			c := rng.Intn(n)
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
		vals := make([]float32, nnz)
		for i := range vals {
			vals[i] = float32(rng.Float64()*2-1) / float32(nnz)
		}
		m.rowCols[r] = cols
		m.rowVals[r] = vals
	}
	return m
}

// Memory layout per PE: x block at 0..bl-1, y block at bl..2bl-1
// (float32 bit patterns). Between iterations y is copied into x.

// Run executes the multithreaded SpMV and returns measurements.
func Run(cfg core.Config, p Params) (*metrics.Run, error) {
	p = p.withDefaults()
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	P := cfg.P
	bl := p.N / P

	if need := 2*bl + 64; cfg.MemWords < need {
		cfg.MemWords = need
	}
	mach, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if p.Tracer != nil {
		mach.SetTracer(p.Tracer)
	}
	if p.Obs != nil {
		mach.SetObs(p.Obs)
	}

	rng := rand.New(rand.NewSource(p.Seed))
	A := buildMatrix(p.N, p.MinNNZ, p.MaxNNZ, rng)
	x0 := make([]float32, p.N)
	for i := range x0 {
		x0[i] = float32(rng.Float64()*2 - 1)
	}
	for i, v := range x0 {
		mach.Mem(packet.PE(i/bl)).Poke(uint32(i%bl), packet.Word(math.Float32bits(v)))
	}

	bar := mach.NewBarrier("iteration", p.H)
	for pe := 0; pe < P; pe++ {
		pe := packet.PE(pe)
		for th := 0; th < p.H; th++ {
			th := th
			mach.SpawnAt(pe, fmt.Sprintf("spmv-t%d", th), packet.Word(th), func(tc *core.TC) {
				worker(tc, A, bar, p, bl, th)
			})
		}
	}

	run, err := mach.Run()
	if err != nil {
		return nil, err
	}
	run.Label = "spmv"
	run.H = p.H
	run.N = p.N

	if !p.SkipVerify {
		got := gather(mach, p.N, bl)
		want := reference(A, x0, p.Iterations)
		for i := range want {
			if d := math.Abs(float64(got[i] - want[i])); d > 1e-3 {
				return nil, fmt.Errorf("spmv: y[%d] = %v, want %v (diff %g)", i, got[i], want[i], d)
			}
		}
	}
	return run, nil
}

// worker computes this thread's rows for each iteration.
func worker(tc *core.TC, A *matrix, bar *core.Barrier, p Params, bl, th int) {
	pe := int(tc.PE())
	lo, hi := dist.Chunk(bl, p.H, th)
	for it := 0; it < p.Iterations; it++ {
		for r := pe*bl + lo; r < pe*bl+hi; r++ {
			tc.Compute(RowSetupCycles)
			var acc float32
			for k, col := range A.rowCols[r] {
				var xv float32
				if col/bl == pe {
					// Local vector element: MCU-rate gather.
					tc.Compute(LocalGatherCycles)
					xv = math.Float32frombits(uint32(tc.PeekLocal(uint32(col % bl))))
				} else {
					// Irregular fine-grain remote read (split-phase).
					w := tc.Read(packet.GlobalAddr{PE: packet.PE(col / bl), Off: uint32(col % bl)})
					xv = math.Float32frombits(uint32(w))
				}
				acc += A.rowVals[r][k] * xv
				tc.Compute(MACCycles)
			}
			tc.PokeLocal(uint32(bl+r-pe*bl), packet.Word(math.Float32bits(acc)))
		}
		tc.Barrier(bar)
		// Refresh x from y for the next iteration (thread's own slice).
		if it < p.Iterations-1 {
			tc.Compute(LocalGatherCycles * sim.Time(hi-lo))
			for i := lo; i < hi; i++ {
				tc.PokeLocal(uint32(i), tc.PeekLocal(uint32(bl+i)))
			}
			tc.Barrier(bar)
		}
	}
}

// gather reads the final y from simulated memory.
func gather(mach *core.Machine, n, bl int) []float32 {
	out := make([]float32, n)
	for i := range out {
		w := mach.Mem(packet.PE(i / bl)).Peek(uint32(bl + i%bl))
		out[i] = math.Float32frombits(uint32(w))
	}
	return out
}

// reference computes the iterated product directly in float32 (matching
// the simulated arithmetic).
func reference(A *matrix, x []float32, iters int) []float32 {
	cur := append([]float32(nil), x...)
	for it := 0; it < iters; it++ {
		next := make([]float32, len(cur))
		for r := range A.rowCols {
			var acc float32
			for k, c := range A.rowCols[r] {
				acc += A.rowVals[r][k] * cur[c]
			}
			next[r] = acc
		}
		cur = next
	}
	return cur
}

// RunTraced runs the workload with a tracer attached, discarding the
// measurements: the caller wants the event stream.
func RunTraced(cfg core.Config, p Params, tracer func(core.TraceEvent)) error {
	p.Tracer = tracer
	_, err := Run(cfg, p)
	return err
}
