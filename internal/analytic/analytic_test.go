package analytic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emx/internal/core"
)

func TestModelValidate(t *testing.T) {
	if (Model{R: 0, L: 1, C: 1}).Validate() == nil {
		t.Error("R=0 accepted")
	}
	if (Model{R: 1, L: -1, C: 1}).Validate() == nil {
		t.Error("L<0 accepted")
	}
	if (Model{R: 12, L: 30, C: 18}).Validate() != nil {
		t.Error("valid model rejected")
	}
}

func TestModelEfficiencyShape(t *testing.T) {
	m := Model{R: 12, L: 30, C: 18}
	if m.Efficiency(0) != 0 {
		t.Error("E(0) != 0")
	}
	// Monotone non-decreasing, bounded by saturation.
	sat := m.R / (m.R + m.C)
	prev := 0.0
	for n := 1; n <= 16; n++ {
		e := m.Efficiency(n)
		if e < prev || e > sat+1e-12 {
			t.Fatalf("E(%d) = %v (prev %v, sat %v)", n, e, prev, sat)
		}
		prev = e
	}
	// Deep saturation reaches R/(R+C) exactly.
	if got := m.Efficiency(16); math.Abs(got-sat) > 1e-12 {
		t.Fatalf("E(16) = %v, want %v", got, sat)
	}
}

func TestModelSaturationPointMatchesPaper(t *testing.T) {
	// Sorting: R=12, C~18, L~30 cycles -> N* = 2. The paper observes the
	// best communication performance at 2-4 threads.
	m := Model{R: 12, L: 30, C: 18}
	ns := m.SaturationPoint()
	if ns < 1.5 || ns > 4.5 {
		t.Fatalf("saturation point %v, want within the paper's 2-4 band", ns)
	}
}

func TestModelRegions(t *testing.T) {
	m := Model{R: 10, L: 100, C: 10} // N* = 6
	if m.RegionOf(1) != Linear {
		t.Error("n=1 not linear")
	}
	if m.RegionOf(6) != Transition {
		t.Error("n=6 not transition")
	}
	if m.RegionOf(12) != Saturation {
		t.Error("n=12 not saturation")
	}
	for _, r := range []Region{Linear, Transition, Saturation} {
		if r.String() == "?" {
			t.Error("unnamed region")
		}
	}
	if Region(9).String() != "?" {
		t.Error("unknown region has a name")
	}
}

func TestModelContinuityProperty(t *testing.T) {
	// Property: E is continuous at the linear/saturation crossover and
	// linear below it.
	check := func(rRaw, lRaw, cRaw uint8) bool {
		m := Model{R: float64(rRaw%50 + 1), L: float64(lRaw % 200), C: float64(cRaw % 50)}
		for n := 1; n < 32; n++ {
			lin := float64(n) * m.R / (m.R + m.C + m.L)
			sat := m.R / (m.R + m.C)
			want := math.Min(lin, sat)
			if math.Abs(m.Efficiency(n)-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(75))}); err != nil {
		t.Fatal(err)
	}
}

func kernelCfg() core.Config {
	cfg := core.DefaultConfig(8)
	cfg.MemWords = 1 << 14
	cfg.MaxCycles = 100_000_000
	return cfg
}

func TestMeasureLatencyInPaperBand(t *testing.T) {
	for _, p := range []int{16, 64} {
		cfg := core.DefaultConfig(p)
		cfg.MemWords = 1 << 12
		lat := MeasureLatency(cfg)
		// Paper: 20-40 clocks (1-2 us at 20 MHz).
		if lat < 15 || lat > 45 {
			t.Errorf("P=%d latency = %d cycles, want ~20-40", p, lat)
		}
	}
}

func TestKernelValidation(t *testing.T) {
	if _, _, err := RunKernel(kernelCfg(), KernelParams{H: 0, Reads: 1, R: 1}); err == nil {
		t.Error("H=0 accepted")
	}
	if _, _, err := RunKernel(kernelCfg(), KernelParams{H: 1, Reads: 0, R: 1}); err == nil {
		t.Error("Reads=0 accepted")
	}
}

func TestKernelMatchesModel(t *testing.T) {
	// The simulator and the analytic model must agree on the efficiency
	// curve within a modest tolerance (the model ignores queueing and
	// barrier effects; the kernel has no barriers).
	cfg := kernelCfg()
	R := 40
	model := FitFromConfig(cfg, 40)
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{1, 2, 4, 8} {
		_, measured, err := RunKernel(cfg, KernelParams{H: h, Reads: 60, R: 40})
		if err != nil {
			t.Fatal(err)
		}
		want := model.Efficiency(h)
		if diff := math.Abs(measured - want); diff > 0.12 {
			t.Errorf("h=%d: measured %v vs model %v (R=%d)", h, measured, want, R)
		}
	}
}

func TestKernelEfficiencyIncreasesThenSaturates(t *testing.T) {
	cfg := kernelCfg()
	var effs []float64
	for _, h := range []int{1, 2, 4, 8} {
		_, e, err := RunKernel(cfg, KernelParams{H: h, Reads: 40, R: 20})
		if err != nil {
			t.Fatal(err)
		}
		effs = append(effs, e)
	}
	if effs[1] <= effs[0] {
		t.Fatalf("efficiency did not grow from h=1 to h=2: %v", effs)
	}
	// Saturation: h=8 within 15%% of h=4.
	if effs[3] < effs[2]*0.85 {
		t.Fatalf("efficiency collapsed past saturation: %v", effs)
	}
}
