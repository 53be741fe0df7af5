package spmv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emx/internal/core"
	"emx/internal/metrics"
)

func testCfg(p int) core.Config {
	cfg := core.DefaultConfig(p)
	cfg.MaxCycles = 200_000_000
	return cfg
}

func TestValidate(t *testing.T) {
	cfg := testCfg(4)
	bad := []Params{
		{N: 0, H: 1},
		{N: 30, H: 1},                          // not divisible by P
		{N: 64, H: 0},                          //
		{N: 8, H: 4},                           // empty chunks
		{N: 64, H: 1, MinNNZ: 5, MaxNNZ: 3},    // inverted bounds
		{N: 64, H: 1, MinNNZ: 1, MaxNNZ: 1000}, // nnz > N
		{N: 64, H: 1, Iterations: -1},
	}
	for _, p := range bad {
		if err := p.Validate(cfg); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	if err := (Params{N: 64, H: 3}).Validate(cfg); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
}

// Run verifies y = A*x against a direct float32 computation, so a nil
// error is a numeric correctness statement.
func TestSpMVCorrectness(t *testing.T) {
	for _, tc := range []struct{ p, n, h, iters int }{
		{1, 16, 1, 1},
		{2, 32, 2, 1},
		{4, 64, 1, 1},
		{4, 64, 4, 2},
		{8, 128, 2, 1},
		{8, 128, 3, 2}, // uneven chunks, repeated product
		{16, 256, 4, 1},
	} {
		if _, err := Run(testCfg(tc.p), Params{
			N: tc.n, H: tc.h, Iterations: tc.iters, Seed: 5,
		}); err != nil {
			t.Errorf("P=%d N=%d H=%d it=%d: %v", tc.p, tc.n, tc.h, tc.iters, err)
		}
	}
}

func TestSpMVSeedsProperty(t *testing.T) {
	check := func(seed int64) bool {
		_, err := Run(testCfg(4), Params{N: 64, H: 2, Seed: seed})
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(58))}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMVDeterministic(t *testing.T) {
	p := Params{N: 128, H: 4, Seed: 9}
	a, err := Run(testCfg(8), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg(8), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.SimEvents != b.SimEvents {
		t.Fatalf("nondeterministic: %d vs %d", a.Makespan, b.Makespan)
	}
}

func TestSpMVNoThreadSyncFullParallelism(t *testing.T) {
	// Rows are independent: like FFT, SpMV needs no thread ordering.
	r, err := Run(testCfg(8), Params{N: 256, H: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MeanSwitches(metrics.SwitchThreadSync); got != 0 {
		t.Fatalf("SpMV recorded %v thread-sync switches", got)
	}
}

func TestSpMVIrregularLoad(t *testing.T) {
	// The irregularity claim: per-PE remote read counts differ
	// substantially (imbalanced rows and scattered columns).
	r, err := Run(testCfg(8), Params{N: 256, H: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	min, max := ^uint64(0), uint64(0)
	for i := range r.PEs {
		n := r.PEs[i].RemoteReads
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max == 0 || min == max {
		t.Fatalf("no load imbalance: min=%d max=%d", min, max)
	}
}

func TestSpMVOverlapBetweenSortAndFFT(t *testing.T) {
	// The conclusion's target-workload hypothesis: irregular moderate
	// parallelism overlaps well but below FFT's near-total hiding.
	run := func(h int) *metrics.Run {
		r, err := Run(testCfg(8), Params{N: 512, H: h, Seed: 2, SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base, r4 := run(1), run(4)
	e := metrics.Efficiency(base, r4)
	if e < 35 || e > 99.9 {
		t.Fatalf("SpMV overlap at h=4 = %.1f%%, want meaningful overlap below total hiding", e)
	}
}

func TestSpMVBreakdownClosed(t *testing.T) {
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
