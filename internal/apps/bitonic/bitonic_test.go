package bitonic

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
		{N: 6, H: 1},
		{N: 64, H: 0},
		{N: 16, H: 8}, // block of 4 smaller than thread count
	}
	for _, p := range bad {
		if err := p.Validate(cfg); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	for _, h := range []int{2, 3} { // non-dividing h uses uneven chunks
		if err := (Params{N: 64, H: h}).Validate(cfg); err != nil {
			t.Errorf("good params H=%d rejected: %v", h, err)
		}
	}
}

// Run verifies sortedness and permutation internally, so a nil error is
// already a correctness statement.
func TestSortSmallConfigs(t *testing.T) {
	for _, tc := range []struct{ p, n, h int }{
		{1, 16, 1},
		{1, 16, 4},
		{2, 32, 1},
		{2, 32, 2},
		{4, 64, 1},
		{4, 64, 2},
		{4, 64, 4},
		{8, 128, 2},
		{8, 256, 4},
		{16, 256, 1},
		{16, 512, 8},
		{4, 64, 3},  // uneven chunks
		{8, 256, 6}, // paper's non-power-of-two thread counts
		{8, 256, 10},
	} {
		if _, err := Run(testCfg(tc.p), Params{N: tc.n, H: tc.h, Seed: 7}); err != nil {
			t.Errorf("P=%d N=%d H=%d: %v", tc.p, tc.n, tc.h, err)
		}
	}
}

func TestSortSeedsProperty(t *testing.T) {
	check := func(seed int64) bool {
		_, err := Run(testCfg(4), Params{N: 128, H: 2, Seed: seed})
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(62))}); err != nil {
		t.Fatal(err)
	}
}

func TestSortBlockReadMode(t *testing.T) {
	for _, h := range []int{1, 2, 4} {
		if _, err := Run(testCfg(8), Params{N: 256, H: h, UseBlockRead: true, Seed: 3}); err != nil {
			t.Errorf("block-read H=%d: %v", h, err)
		}
	}
}

func TestSortDeterministic(t *testing.T) {
	p := Params{N: 256, H: 4, Seed: 11}
	a, err := Run(testCfg(8), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg(8), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.SimEvents != b.SimEvents {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Makespan, b.Makespan)
	}
}

func TestSortHasThreadSyncSwitches(t *testing.T) {
	// The paper's signature behaviour: ordered merging forces thread-sync
	// switches when h > 1 — and none when h == 1.
	r1, err := Run(testCfg(4), Params{N: 256, H: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.MeanSwitches(metrics.SwitchThreadSync); got != 0 {
		t.Fatalf("h=1 has %v thread-sync switches", got)
	}
	r4, err := Run(testCfg(4), Params{N: 256, H: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := r4.MeanSwitches(metrics.SwitchThreadSync); got == 0 {
		t.Fatal("h=4 sorting shows no thread-sync switches")
	}
}

func TestSortRemoteReadSwitchBudget(t *testing.T) {
	// Remote-read switches are bounded by total elements readable:
	// steps * bl per PE (less when the irregularity skips reads), and the
	// switch count equals the read count (element-wise reads).
	p, n, h := 4, 256, 2
	r, err := Run(testCfg(p), Params{N: n, H: h, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	bl := n / p
	steps := 3 // log2(4)*(log2(4)+1)/2
	maxReads := uint64(steps * bl)
	for pe := range r.PEs {
		reads := r.PEs[pe].RemoteReads
		if reads == 0 || reads > maxReads {
			t.Fatalf("PE%d reads = %d, want (0,%d]", pe, reads, maxReads)
		}
		if sw := r.PEs[pe].Switches[metrics.SwitchRemoteRead]; sw != reads {
			t.Fatalf("PE%d: %d remote-read switches vs %d reads", pe, sw, reads)
		}
	}
}

func TestSortIrregularitySkipsReads(t *testing.T) {
	// With several threads, some PE must complete its output before all
	// partner elements are read (the paper's Figure 4 discussion).
	r, err := Run(testCfg(8), Params{N: 512, H: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := r.SumCounter(func(pe *metrics.PE) uint64 { return pe.RemoteReads })
	bl := 512 / 8
	steps := 6 // log2(8)=3 -> 3*4/2
	full := uint64(8 * steps * bl)
	if total >= full {
		t.Fatalf("no reads were skipped: %d >= %d", total, full)
	}
}

func TestSortCommTimeValleyShape(t *testing.T) {
	// Figure 6 shape: comm time at h in {2,4} below h=1.
	comm := map[int]float64{}
	for _, h := range []int{1, 2, 4} {
		r, err := Run(testCfg(8), Params{N: 1024, H: h, Seed: 2, SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		comm[h] = r.MeanCommTime()
	}
	if comm[2] >= comm[1] || comm[4] >= comm[1] {
		t.Fatalf("no comm-time valley: %v", comm)
	}
}

func TestSortBreakdownClosed(t *testing.T) {
	r, err := Run(testCfg(4), Params{N: 256, H: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for pe := range r.PEs {
		if r.PEs[pe].Times.Total() != r.Makespan {
			t.Fatalf("PE%d times %+v don't sum to makespan %d", pe, r.PEs[pe].Times, r.Makespan)
		}
	}
}

func TestSortBlockReadUnevenChunks(t *testing.T) {
	// Block-read mode with thread counts that do not divide the block:
	// chunk windows are uneven and the keep-high side reads reversed
	// windows. Run self-verifies sortedness and permutation.
	for _, h := range []int{3, 5, 6} {
		if _, err := Run(testCfg(4), Params{N: 128, H: h, UseBlockRead: true, Seed: 21}); err != nil {
			t.Errorf("block-read H=%d: %v", h, err)
		}
	}
}
