// Package fft implements the paper's multithreaded Fast Fourier Transform
// on the simulated EM-X (Section 3.2).
//
// n complex points are block-distributed over P processors. A radix-2
// decimation-in-frequency FFT needs log2(n) iterations; with blocked
// distribution only the first log2(P) involve communication — in
// iteration k every point's butterfly partner lives at the same local
// offset on the PE at distance P/2^(k+1). Per point, a thread remote
// reads the partner's real and imaginary words and then performs a large
// butterfly computation ("a lot of instructions ... including some
// trigonometric function computations and a loop to find complex roots"
// — hundreds of clocks of run length).
//
// Unlike bitonic sorting, FFT has no data dependence between points
// within an iteration: threads compute and communicate in any order, with
// no thread synchronization — the source of its >95% overlap in the
// paper. An iteration barrier keeps iterations synchronous, as in the
// paper's instrumented runs.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"emx/internal/core"
	"emx/internal/dist"
	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/refalgo"
	"emx/internal/sim"
)

// Cost model constants.
const (
	// ButterflyCycles is the per-point run length after the two remote
	// reads: twiddle computation by a root-finding loop plus the complex
	// multiply-add — "hundreds of clocks" in the paper.
	ButterflyCycles sim.Time = 300
	// AddrCycles models "compute real_address and img_address" per point.
	AddrCycles sim.Time = 6
	// LocalButterflyCycles is the per-point cost of the remaining local
	// iterations (no communication; twiddles still computed).
	LocalButterflyCycles sim.Time = 280
	// IterSetupCycles per thread per iteration.
	IterSetupCycles sim.Time = 8
)

// Params configures one FFT run.
type Params struct {
	// N is the number of complex points (power of two, >= P*H).
	N int
	// H is the number of threads per PE.
	H int
	// AllStages also executes the log2(n)-log2(P) purely local iterations
	// and the final bit-reversal gather, producing a verifiable transform.
	// The paper's measurements use only the first log2(P) iterations
	// ("In this report, only the first log P iterations are used"), which
	// is the default.
	AllStages bool
	// Seed drives the deterministic input generator.
	Seed int64
	// Obs, when non-nil, is attached to the machine for cycle-accounting
	// profiles and structured traces (emxprof). Must be sized for cfg.P.
	Obs *obs.Tracer
	// SkipVerify disables the numeric check (only meaningful with
	// AllStages).
	SkipVerify bool
}

// Validate checks parameter consistency against a machine configuration.
func (p Params) Validate(cfg core.Config) error {
	if p.N <= 0 || p.N&(p.N-1) != 0 {
		return fmt.Errorf("fft: N must be a positive power of two, got %d", p.N)
	}
	if p.H < 1 {
		return fmt.Errorf("fft: H must be >= 1, got %d", p.H)
	}
	if cfg.P&(cfg.P-1) != 0 {
		return fmt.Errorf("fft: P must be a power of two, got %d", cfg.P)
	}
	if p.N < cfg.P*p.H {
		return fmt.Errorf("fft: N=%d too small for P*H=%d (need a nonempty chunk per thread)", p.N, cfg.P*p.H)
	}
	return nil
}

// Memory layout per PE: two buffers, each a real plane at realBase and an
// imaginary plane at imagBase, both blockLen words, in float32 bit
// patterns. Remote iteration k reads buffer k%2 and writes the other
// one, so a partner's read never sees a value written in the same
// iteration, however long the read waits for service. The local
// iterations work in place in the buffer the last remote one wrote.
func realBase(bl, buf int) uint32 { return uint32(2 * bl * buf) }
func imagBase(bl, buf int) uint32 { return realBase(bl, buf) + uint32(bl) }
func peOf(n, P, idx int) int      { return idx / (n / P) }
func offOf(n, P, idx int) int     { return idx % (n / P) }

// Run executes one multithreaded FFT and returns measurements.
func Run(cfg core.Config, p Params) (*metrics.Run, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	P := cfg.P
	bl := p.N / P
	logP := bits.Len(uint(P)) - 1
	logN := bits.Len(uint(p.N)) - 1

	if need := 4*bl + 64; cfg.MemWords < need {
		cfg.MemWords = need
	}
	mach, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if p.Obs != nil {
		mach.SetObs(p.Obs)
	}

	// Deterministic complex input in [-1,1)^2.
	rng := rand.New(rand.NewSource(p.Seed))
	input := make([]complex128, p.N)
	for i := range input {
		input[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	for i, v := range input {
		pe := packet.PE(peOf(p.N, P, i))
		off := uint32(offOf(p.N, P, i))
		mach.Mem(pe).Poke(realBase(bl, 0)+off, packet.Word(math.Float32bits(float32(real(v)))))
		mach.Mem(pe).Poke(imagBase(bl, 0)+off, packet.Word(math.Float32bits(float32(imag(v)))))
	}

	bar := mach.NewBarrier("iteration", p.H)
	for pe := 0; pe < P; pe++ {
		pe := packet.PE(pe)
		for th := 0; th < p.H; th++ {
			th := th
			mach.SpawnAt(pe, fmt.Sprintf("fft-t%d", th), packet.Word(th), func(tc *core.TC) {
				fftWorker(tc, bar, p, bl, logP, logN, th)
			})
		}
	}

	run, err := mach.Run()
	if err != nil {
		return nil, err
	}
	run.Label = "fft"
	run.H = p.H
	run.N = p.N

	if p.AllStages && !p.SkipVerify {
		got := gather(mach, p.N, P, bl, logP%2)
		want := refalgo.FFT(input)
		if d := refalgo.MaxAbsDiff(got, want); d > tolerance(p.N) {
			return nil, fmt.Errorf("fft: result differs from reference by %g (N=%d P=%d H=%d)", d, p.N, P, p.H)
		}
	}
	return run, nil
}

// tolerance scales with transform size: float32 storage between stages
// accumulates rounding across log2(n) levels of magnitude growth.
func tolerance(n int) float64 {
	return 2e-4 * float64(n)
}

// gather reads the distributed result from buffer buf and undoes the DIF
// bit reversal.
func gather(mach *core.Machine, n, P, bl, buf int) []complex128 {
	raw := make([]complex128, n)
	for i := 0; i < n; i++ {
		pe := packet.PE(peOf(n, P, i))
		off := uint32(offOf(n, P, i))
		re := math.Float32frombits(uint32(mach.Mem(pe).Peek(realBase(bl, buf) + off)))
		im := math.Float32frombits(uint32(mach.Mem(pe).Peek(imagBase(bl, buf) + off)))
		raw[i] = complex(float64(re), float64(im))
	}
	// DIF leaves results in bit-reversed index order.
	out := make([]complex128, n)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := range raw {
		out[int(bits.Reverse64(uint64(i))>>shift)] = raw[i]
	}
	return out
}

// fftWorker is one of the h threads on a PE.
func fftWorker(tc *core.TC, bar *core.Barrier, p Params, bl, logP, logN, th int) {
	lo, hi := dist.Chunk(bl, p.H, th)
	pe := int(tc.PE())
	n := p.N

	// Remote iterations: k = 0 .. logP-1. Butterfly distance n/2^(k+1),
	// partner PE distance P/2^(k+1); same local offsets on both sides.
	for k := 0; k < logP; k++ {
		tc.Compute(IterSetupCycles)
		peDist := (1 << uint(logP)) >> uint(k+1)
		partner := packet.PE(pe ^ peDist)
		upper := pe&peDist != 0 // this PE holds the "b" side of the butterfly
		d := n >> uint(k+1)     // butterfly span in global index space
		src, dst := k%2, 1-k%2

		for q := lo; q < hi; q++ {
			off := uint32(q)
			// Address computation, then the two split-phase reads of
			// the paper's inner loop.
			reBits, imBits := tc.ComputeReadPair(AddrCycles,
				packet.GlobalAddr{PE: partner, Off: realBase(bl, src) + off},
				packet.GlobalAddr{PE: partner, Off: imagBase(bl, src) + off})
			mate := complex(
				float64(math.Float32frombits(uint32(reBits))),
				float64(math.Float32frombits(uint32(imBits))),
			)
			mine := peekC(tc, bl, src, off)

			// Global index of my point and its position within the
			// butterfly group determine the twiddle.
			gi := pe*bl + q
			kIdx := gi % d
			var out complex128
			if !upper {
				out = mine + mate // a' = a + b
			} else {
				ang := -2 * math.Pi * float64(kIdx) / float64(2*d)
				w := complex(math.Cos(ang), math.Sin(ang))
				out = (mate - mine) * w // b' = (a - b) * w
			}
			// The big butterfly run length: trig loop + complex ops.
			tc.Compute(ButterflyCycles)
			pokeC(tc, bl, dst, off, out)
		}
		tc.Barrier(bar)
	}

	if !p.AllStages {
		return
	}

	// Local iterations: k = logP .. logN-1; both butterfly halves are in
	// this PE's block. Points are split across threads; each thread owns
	// the pairs whose "a" index falls in its range — to keep pairs whole,
	// thread 0 handles them all when the span gets smaller than a chunk
	// boundary would allow cleanly; simplest correct split: iterate over
	// all local "a" positions and let the owning thread of each pair act.
	buf := logP % 2
	for k := logP; k < logN; k++ {
		tc.Compute(IterSetupCycles)
		d := n >> uint(k+1) // butterfly span, now < bl
		for local := lo; local < hi; local++ {
			gi := pe*bl + local
			if gi%(2*d) >= d {
				continue // this is a "b" index; handled with its "a"
			}
			aOff, bOff := uint32(local), uint32(local+d)
			a := peekC(tc, bl, buf, aOff)
			b := peekC(tc, bl, buf, bOff)
			kIdx := gi % d
			ang := -2 * math.Pi * float64(kIdx) / float64(2*d)
			w := complex(math.Cos(ang), math.Sin(ang))
			pokeC(tc, bl, buf, aOff, a+b)
			pokeC(tc, bl, buf, bOff, (a-b)*w)
			tc.Compute(LocalButterflyCycles)
		}
		tc.Barrier(bar)
	}
}

func peekC(tc *core.TC, bl, buf int, off uint32) complex128 {
	re := math.Float32frombits(uint32(tc.PeekLocal(realBase(bl, buf) + off)))
	im := math.Float32frombits(uint32(tc.PeekLocal(imagBase(bl, buf) + off)))
	return complex(float64(re), float64(im))
}

func pokeC(tc *core.TC, bl, buf int, off uint32, v complex128) {
	tc.PokeLocal(realBase(bl, buf)+off, packet.Word(math.Float32bits(float32(real(v)))))
	tc.PokeLocal(imagBase(bl, buf)+off, packet.Word(math.Float32bits(float32(imag(v)))))
}
