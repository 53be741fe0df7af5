// Package bitonic implements the paper's multithreaded bitonic sorting on
// the simulated EM-X (Section 3.1).
//
// Given P processors and n elements, each PE holds an n/P block. After a
// local sort, log2(P)*(log2(P)+1)/2 merge steps run; in each step a PE
// pairs with a partner, reads the partner's block, and keeps the low or
// high half of the merged 2n/P elements (compare-split; all blocks stay
// ascending, directions encoded in which half is kept — equivalent at
// block level to the paper's ascending/descending formulation).
//
// The multithreaded version divides each step among h threads per PE:
//
//   - thread communication parallelism: each thread element-wise remote
//     reads its n/(hP) chunk of the partner block through split-phase
//     reads, with the paper's 12-cycle run length per loop iteration;
//   - thread computation *sequentiality*: merging must proceed in thread
//     order (thread j merges only after thread j-1), enforced with
//     thread-sync blocking — bitonic sorting's lack of thread computation
//     parallelism, which bounds its overlap in the paper (~35% there);
//   - irregularity: once a PE has produced its n/P outputs, remaining
//     reads and merges are skipped ("not all the elements residing in the
//     mate processor need to be read").
//
// Blocks are double-buffered in simulated memory so that a PE that
// finishes a step early cannot overwrite data its partner is still
// reading.
package bitonic

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"emx/internal/core"
	"emx/internal/dist"
	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/refalgo"
	"emx/internal/sim"
)

// Cost model, calibrated from the paper's measurements.
const (
	// ReadLoopCycles is the run length of the read loop body: "The loop
	// body has 12 instructions, i.e., an iteration takes 12 clocks".
	ReadLoopCycles sim.Time = 12
	// MergeCycles per output element: "The computations for each element
	// are not more than 10 instructions".
	MergeCycles sim.Time = 10
	// LocalSortCycles per element per log2 level of the initial local sort.
	LocalSortCycles sim.Time = 12
	// StepSetupCycles per thread per merge step (address computation).
	StepSetupCycles sim.Time = 8
	// BlockCopyCycles per element to unpack a block-read buffer
	// (ablation mode only).
	BlockCopyCycles sim.Time = 2
)

// Params configures one sorting run.
type Params struct {
	// N is the total element count (power of two, >= P*H).
	N int
	// H is the number of threads per PE.
	H int
	// UseBlockRead replaces per-element reads with one block-read request
	// per thread chunk (the X-block ablation).
	UseBlockRead bool
	// Seed drives the deterministic input generator.
	Seed int64
	// Obs, when non-nil, is attached to the machine for cycle-accounting
	// profiles and structured traces (emxprof). Must be sized for cfg.P.
	Obs *obs.Tracer
	// SkipVerify disables the post-run sortedness/permutation check
	// (benchmark sweeps verify once separately).
	SkipVerify bool
}

// Validate checks parameter consistency against a machine configuration.
func (p Params) Validate(cfg core.Config) error {
	if p.N <= 0 || p.N&(p.N-1) != 0 {
		return fmt.Errorf("bitonic: N must be a positive power of two, got %d", p.N)
	}
	if p.H < 1 {
		return fmt.Errorf("bitonic: H must be >= 1, got %d", p.H)
	}
	if cfg.P&(cfg.P-1) != 0 {
		return fmt.Errorf("bitonic: P must be a power of two, got %d", cfg.P)
	}
	if p.N < cfg.P*p.H {
		return fmt.Errorf("bitonic: N=%d too small for P*H=%d (need a nonempty chunk per thread)", p.N, cfg.P*p.H)
	}
	return nil
}

// pe-level state for the step in progress; shared by the PE's threads.
// The simulation engine runs one coroutine at a time, so no locking.
type peState struct {
	block   []uint32 // shadow of the current ascending block
	recv    []uint32 // partner elements, in consumption order
	got     []bool   // which consumption indices have been read
	out     []uint32 // merged outputs, in consumption order
	stepID  int      // which global step this state belongs to
	keepLow bool
	li, ri  int // local / remote consumption cursors
	outN    int
	done    bool // n/P outputs produced; stragglers skip work
	// ws blocks threads waiting for the merge frontier (thread order);
	// notified whenever ri advances or done is set.
	ws *core.WaitSet
}

// frontier is the thread whose chunk the merge is currently consuming;
// once the remote side is fully consumed the last thread drains the rest
// from local elements. (Validate guarantees bl >= h, so every thread owns
// a nonempty chunk.)
func (st *peState) frontier(bl, h int) int {
	if st.ri >= bl {
		return h - 1
	}
	return dist.ChunkOf(bl, h, st.ri)
}

// Run executes one multithreaded bitonic sort and returns measurements.
func Run(cfg core.Config, p Params) (*metrics.Run, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	P := cfg.P
	bl := p.N / P // block length per PE
	logP := bits.Len(uint(P)) - 1
	steps := logP * (logP + 1) / 2

	// Size memory for double-buffered blocks.
	if need := 2*bl + 64; cfg.MemWords < need {
		cfg.MemWords = need
	}
	mach, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if p.Obs != nil {
		mach.SetObs(p.Obs)
	}

	// Deterministic input, blocked distribution into buffer parity 0.
	rng := rand.New(rand.NewSource(p.Seed))
	input := make([]uint32, p.N)
	for i := range input {
		input[i] = rng.Uint32()
	}
	for pe := 0; pe < P; pe++ {
		for i := 0; i < bl; i++ {
			mach.Mem(packet.PE(pe)).Poke(uint32(i), packet.Word(input[pe*bl+i]))
		}
	}

	states := make([]peState, P)
	for pe := range states {
		states[pe] = peState{
			block:  make([]uint32, bl),
			recv:   make([]uint32, bl),
			got:    make([]bool, bl),
			out:    make([]uint32, 0, bl),
			stepID: -1,
		}
		for i := 0; i < bl; i++ {
			states[pe].block[i] = input[pe*bl+i]
		}
	}

	bar := mach.NewBarrier("iteration", p.H)
	for pe := range states {
		states[pe].ws = mach.NewWaitSet()
	}

	for pe := 0; pe < P; pe++ {
		pe := packet.PE(pe)
		for th := 0; th < p.H; th++ {
			th := th
			mach.SpawnAt(pe, fmt.Sprintf("sort-t%d", th), packet.Word(th), func(tc *core.TC) {
				sortWorker(tc, &states[pe], bar, p, bl, logP, th)
			})
		}
	}

	run, err := mach.Run()
	if err != nil {
		return nil, err
	}
	run.Label = "bitonic"
	run.H = p.H
	run.N = p.N

	if !p.SkipVerify {
		finalParity := uint32(steps % 2)
		got := make([]uint32, 0, p.N)
		for pe := 0; pe < P; pe++ {
			base := finalParity * uint32(bl)
			for i := 0; i < bl; i++ {
				got = append(got, uint32(mach.Mem(packet.PE(pe)).Peek(base+uint32(i))))
			}
		}
		if !refalgo.IsSorted(got) {
			return nil, fmt.Errorf("bitonic: output not sorted (N=%d P=%d H=%d)", p.N, P, p.H)
		}
		if !refalgo.IsPermutation(input, got) {
			return nil, fmt.Errorf("bitonic: output not a permutation of input")
		}
	}
	return run, nil
}

// sortWorker is one of the h threads on a PE.
func sortWorker(tc *core.TC, st *peState, bar *core.Barrier, p Params, bl, logP, th int) {
	pe := int(tc.PE())

	// Phase 1: local sort (single-threaded per PE, as in the paper).
	if th == 0 {
		if lg := bits.Len(uint(bl)) - 1; lg > 0 {
			tc.Compute(LocalSortCycles * sim.Time(bl*lg))
		} else {
			tc.Compute(LocalSortCycles)
		}
		sort.Slice(st.block, func(i, j int) bool { return st.block[i] < st.block[j] })
		writeBlock(tc, st.block, 0)
	}
	tc.Barrier(bar)

	// Phase 2: log2(P)(log2(P)+1)/2 merge steps.
	step := 0
	for i := 1; i <= logP; i++ {
		for j := i - 1; j >= 0; j-- {
			mergeStep(tc, st, p, bl, th, step, pe, i, j)
			tc.Barrier(bar)
			step++
		}
	}
}

// mergeStep runs one compare-split step for one thread.
func mergeStep(tc *core.TC, st *peState, p Params, bl, th, step, pe, i, j int) {
	partner := packet.PE(pe ^ (1 << uint(j)))
	ascending := pe&(1<<uint(i)) == 0
	lowSide := pe&(1<<uint(j)) == 0
	keepLow := ascending == lowSide

	// First thread of this PE to enter the step resets the shared state.
	if st.stepID != step {
		st.stepID = step
		st.keepLow = keepLow
		st.li, st.ri = 0, 0
		st.outN = 0
		st.out = st.out[:0]
		st.done = false
		for i := range st.got {
			st.got[i] = false
		}
	}

	readBase := uint32(step % 2 * bl) // partner's current buffer
	tc.Compute(StepSetupCycles)

	// Communication phase: read my chunk of the partner's block, in
	// consumption order. After every arrival, merge as far as the data
	// allows if the merge frontier is in my chunk (Figure 4's semantics:
	// computation interleaves with communication, but in thread order).
	// Skip the tail of the chunk once the PE's output is complete.
	lo, hi := dist.Chunk(bl, p.H, th)
	if p.UseBlockRead {
		readChunkBlock(tc, st, partner, readBase, bl, lo, hi, keepLow)
		if !st.done && st.frontier(bl, p.H) == th {
			mergeAvailable(tc, st, bl, hi, th, step)
		}
	} else {
		for ci := lo; ci < hi; ci++ { // ci is the consumption index
			if st.done {
				break // irregularity: remaining elements not needed
			}
			addr := consumptionAddr(readBase, bl, ci, keepLow)
			// The rest of the 12-instruction body, then the read.
			v := tc.ComputeRead(ReadLoopCycles-1, packet.GlobalAddr{PE: partner, Off: addr})
			st.recv[ci] = uint32(v)
			st.got[ci] = true
			if !st.done && st.frontier(bl, p.H) == th {
				mergeAvailable(tc, st, bl, hi, th, step)
			}
		}
	}

	// Computation phase: merging must proceed in thread order — thread j
	// cannot merge before thread i for i < j (no thread computation
	// parallelism, the paper's key contrast with FFT). Wait for the
	// frontier to reach my chunk, finish consuming it, then hand over.
	for !st.done && st.frontier(bl, p.H) <= th {
		if st.frontier(bl, p.H) == th {
			if !mergeAvailable(tc, st, bl, hi, th, step) {
				break // nothing consumable and frontier is mine: chunk done
			}
			continue
		}
		// Block until it is this thread's turn (one thread-sync switch).
		tc.WaitUntil(metrics.SwitchThreadSync, st.ws, func() bool {
			return st.done || st.frontier(bl, p.H) >= th
		})
	}
}

// mergeAvailable advances the merge through this thread's chunk as far as
// already-read data allows, charging MergeCycles per produced output
// before publishing the state change. A thread only ever consumes its own
// chunk (plus the final local drain if it owns the last chunk) — merging
// is strictly in thread order. Returns whether any progress was made.
// When the output quota is reached it finalizes the step (write-back to
// the other buffer).
func mergeAvailable(tc *core.TC, st *peState, bl, hiRemote, th, step int) bool {
	progressed := false
	for {
		n := countMergeable(st, bl, hiRemote)
		if n == 0 {
			return progressed
		}
		tc.Compute(MergeCycles * sim.Time(n))
		applyMerge(st, bl, hiRemote, n)
		progressed = true
		if st.outN == bl {
			st.done = true
			finalizeStep(tc, st, bl, step)
			st.ws.Notify()
			return true
		}
		st.ws.Notify() // the frontier may have advanced to the next thread
	}
}

// consumptionAddr maps a consumption index to a word offset in the
// partner's buffer: ascending from the bottom when keeping the low half,
// descending from the top when keeping the high half.
func consumptionAddr(base uint32, bl, ci int, keepLow bool) uint32 {
	if keepLow {
		return base + uint32(ci)
	}
	return base + uint32(bl-1-ci)
}

// readChunkBlock issues a single block-read for the thread's chunk
// (ablation X-block) and unpacks it into consumption order.
func readChunkBlock(tc *core.TC, st *peState, partner packet.PE, base uint32, bl, lo, hi int, keepLow bool) {
	if st.done || hi == lo {
		return
	}
	m := hi - lo
	var start uint32
	if keepLow {
		start = base + uint32(lo)
	} else {
		start = base + uint32(bl-hi)
	}
	words := tc.ComputeReadBlock(StepSetupCycles, packet.GlobalAddr{PE: partner, Off: start}, m)
	tc.Compute(BlockCopyCycles * sim.Time(m))
	for k := 0; k < m; k++ {
		if keepLow {
			st.recv[lo+k] = uint32(words[k])
		} else {
			st.recv[lo+k] = uint32(words[m-1-k])
		}
		st.got[lo+k] = true
	}
}

// mergeCursor decides the next consumption within a thread's duty window
// [st.ri, hiRemote): returns takeLocal and ok (ok=false when the merge
// must stall — the next remote element is unread or outside the window —
// or the output quota is met). A thread whose remote window runs dry
// cannot compare the local head against remote elements it never read;
// only the final window (hiRemote == bl) may drain the remaining output
// from local elements alone.
func mergeCursor(st *peState, bl, hiRemote, li, ri, outN int) (takeLocal, ok bool) {
	if outN >= bl {
		return false, false
	}
	canRemote := ri < hiRemote && st.got[ri]
	lastDrain := ri >= bl && hiRemote == bl && li < bl
	switch {
	case canRemote && li < bl:
		lv := consumptionVal(st.block, bl, li, st.keepLow)
		rv := st.recv[ri]
		if st.keepLow {
			return lv <= rv, true
		}
		return lv >= rv, true
	case canRemote:
		return false, true // local exhausted: take remote
	case lastDrain:
		return true, true // remote fully consumed: drain local
	default:
		return false, false
	}
}

// countMergeable dry-runs the merge to price it without mutating state.
func countMergeable(st *peState, bl, hiRemote int) int {
	li, ri, outN := st.li, st.ri, st.outN
	for {
		takeLocal, ok := mergeCursor(st, bl, hiRemote, li, ri, outN)
		if !ok {
			break
		}
		if takeLocal {
			li++
		} else {
			ri++
		}
		outN++
	}
	return outN - st.outN
}

// applyMerge consumes exactly n elements (the count previously priced).
func applyMerge(st *peState, bl, hiRemote, n int) {
	for k := 0; k < n; k++ {
		takeLocal, ok := mergeCursor(st, bl, hiRemote, st.li, st.ri, st.outN)
		if !ok {
			panic("bitonic: merge apply diverged from dry run")
		}
		var v uint32
		if takeLocal {
			v = consumptionVal(st.block, bl, st.li, st.keepLow)
			st.li++
		} else {
			v = st.recv[st.ri]
			st.ri++
		}
		st.out = append(st.out, v)
		st.outN++
	}
}

func consumptionVal(block []uint32, bl, i int, keepLow bool) uint32 {
	if keepLow {
		return block[i]
	}
	return block[bl-1-i]
}

// finalizeStep installs the merged output as the PE's new ascending block
// in the opposite buffer (double buffering: the partner may still be
// reading the current one).
func finalizeStep(tc *core.TC, st *peState, bl, step int) {
	if st.keepLow {
		copy(st.block, st.out)
	} else {
		for k := 0; k < bl; k++ {
			st.block[k] = st.out[bl-1-k]
		}
	}
	writeBlock(tc, st.block, uint32((step+1)%2*bl))
}

// writeBlock pokes the shadow block into simulated memory at base. The
// store cycles are part of the merge cost model (each merged element is
// stored once, inside MergeCycles).
func writeBlock(tc *core.TC, block []uint32, base uint32) {
	for i, v := range block {
		tc.PokeLocal(base+uint32(i), packet.Word(v))
	}
}
