package fft

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emx/internal/core"
	"emx/internal/metrics"
	"emx/internal/proc"
	"emx/internal/thread"
)

func testCfg(p int) core.Config {
	cfg := core.DefaultConfig(p)
	cfg.MaxCycles = 500_000_000
	return cfg
}

func TestValidate(t *testing.T) {
	cfg := testCfg(4)
	bad := []Params{
		{N: 0, H: 1},
		{N: 24, H: 1},
		{N: 64, H: 0},
		{N: 64, H: 17}, // block of 16 smaller than thread count
	}
	for _, p := range bad {
		if err := p.Validate(cfg); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	if err := (Params{N: 64, H: 1}).Validate(testCfg(3)); err == nil {
		t.Error("P=3 accepted: the butterfly partner PE must exist")
	}
	for _, h := range []int{4, 5} { // non-dividing h uses uneven chunks
		if err := (Params{N: 64, H: h}).Validate(cfg); err != nil {
			t.Errorf("good params H=%d rejected: %v", h, err)
		}
	}
}

// AllStages runs verify the distributed transform against refalgo.FFT +
// DFT-backed reference, so a nil error is a numeric correctness statement.
func TestFFTCorrectnessAllStages(t *testing.T) {
	for _, tc := range []struct{ p, n, h int }{
		{2, 16, 1},
		{2, 16, 2},
		{4, 32, 1},
		{4, 32, 2},
		{4, 64, 4},
		{8, 64, 1},
		{8, 128, 2},
		{16, 256, 4},
		{4, 32, 3}, // uneven chunks
		{8, 128, 6},
	} {
		if _, err := Run(testCfg(tc.p), Params{N: tc.n, H: tc.h, AllStages: true, Seed: 13}); err != nil {
			t.Errorf("P=%d N=%d H=%d: %v", tc.p, tc.n, tc.h, err)
		}
	}
}

// TestFFTCorrectUnderEveryServiceMode verifies the transform when a
// remote read waits in the EXU's queue (exu mode, replies at either
// priority) as well as when bypass DMA serves it at once: the value a
// read returns must not depend on when it is served. 16 points per PE
// are enough to expose a read that sees its partner's new value.
func TestFFTCorrectUnderEveryServiceMode(t *testing.T) {
	for _, mode := range []proc.ServiceMode{proc.ServiceBypass, proc.ServiceEXU} {
		for _, replyHigh := range []bool{false, true} {
			for _, p := range []int{16, 32, 64} {
				for _, h := range []int{1, 2, 4, 8} {
					cfg := testCfg(p)
					cfg.Proc.Mode = mode
					if replyHigh {
						cfg.Proc.ReplyPrio = thread.High
					}
					if _, err := Run(cfg, Params{N: 16 * p, H: h, AllStages: true, Seed: 13}); err != nil {
						t.Errorf("%v reply_high=%v P=%d H=%d: %v", mode, replyHigh, p, h, err)
					}
				}
			}
		}
	}
}

func TestFFTSeedsProperty(t *testing.T) {
	check := func(seed int64) bool {
		_, err := Run(testCfg(4), Params{N: 64, H: 2, AllStages: true, Seed: seed})
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(87))}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTRemoteReadCountExact(t *testing.T) {
	// Every point needs exactly 2 reads per remote iteration; no
	// irregularity (the paper: "FFT requires all the elements to be read").
	p, n, h := 8, 256, 2
	r, err := Run(testCfg(p), Params{N: n, H: h, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	logP := 3
	bl := n / p
	wantPerPE := uint64(2 * bl * logP)
	for pe := range r.PEs {
		if got := r.PEs[pe].RemoteReads; got != wantPerPE {
			t.Fatalf("PE%d reads = %d, want %d", pe, got, wantPerPE)
		}
	}
}

func TestFFTNoThreadSyncSwitches(t *testing.T) {
	// The paper's key contrast: FFT threads never synchronize with each
	// other inside an iteration.
	r, err := Run(testCfg(8), Params{N: 256, H: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MeanSwitches(metrics.SwitchThreadSync); got != 0 {
		t.Fatalf("FFT recorded %v thread-sync switches", got)
	}
}

func TestFFTHighOverlap(t *testing.T) {
	// Figure 7(c)-(d): with its ~300-cycle run length, FFT should overlap
	// the vast majority of communication already at h=2.
	base, err := Run(testCfg(8), Params{N: 512, H: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testCfg(8), Params{N: 512, H: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := metrics.Efficiency(base, r2)
	if e < 80 {
		t.Fatalf("overlap efficiency at h=2 = %.1f%%, want >80%%", e)
	}
}

func TestFFTDeterministic(t *testing.T) {
	p := Params{N: 128, H: 2, Seed: 11}
	a, err := Run(testCfg(4), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg(4), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.SimEvents != b.SimEvents {
		t.Fatalf("nondeterministic: %d vs %d", a.Makespan, b.Makespan)
	}
}

func TestFFTBreakdownClosed(t *testing.T) {
	r, err := Run(testCfg(4), Params{N: 128, H: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for pe := range r.PEs {
		if r.PEs[pe].Times.Total() != r.Makespan {
			t.Fatalf("PE%d times %+v don't sum to makespan %d", pe, r.PEs[pe].Times, r.Makespan)
		}
	}
}

func TestFFTComputeDominates(t *testing.T) {
	// Figure 8(c)-(d): FFT is computation-dominated, unlike sorting.
	r, err := Run(testCfg(8), Params{N: 512, H: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b := r.TotalBreakdown()
	if b.Compute <= b.Comm {
		t.Fatalf("FFT not compute-dominated: %+v", b)
	}
}

func TestFFTSingleThreadOnePE(t *testing.T) {
	// Degenerate machine: P=1 has no remote iterations at all; AllStages
	// must still produce a correct transform.
	if _, err := Run(testCfg(1), Params{N: 32, H: 1, AllStages: true, Seed: 9}); err != nil {
		t.Fatal(err)
	}
}
