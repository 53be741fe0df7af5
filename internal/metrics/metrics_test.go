package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emx/internal/sim"
)

func TestBreakdownTotalAndAdd(t *testing.T) {
	a := Breakdown{Compute: 10, Overhead: 2, Switch: 3, Comm: 5}
	if a.Total() != 20 {
		t.Fatalf("total = %d, want 20", a.Total())
	}
	b := Breakdown{Compute: 1, Overhead: 1, Switch: 1, Comm: 1}
	a.Add(b)
	if a.Total() != 24 || a.Compute != 11 {
		t.Fatalf("after add: %+v", a)
	}
}

func TestBreakdownFractions(t *testing.T) {
	b := Breakdown{Compute: 50, Overhead: 10, Switch: 20, Comm: 20}
	c, o, m, s := b.Fractions()
	if c != 0.5 || o != 0.1 || m != 0.2 || s != 0.2 {
		t.Fatalf("fractions = %v %v %v %v", c, o, m, s)
	}
	var z Breakdown
	c, o, m, s = z.Fractions()
	if c != 0 || o != 0 || m != 0 || s != 0 {
		t.Fatal("zero breakdown must give zero fractions")
	}
}

func TestBreakdownFractionsSumToOne(t *testing.T) {
	check := func(c, o, s, m uint16) bool {
		b := Breakdown{Compute: sim.Time(c), Overhead: sim.Time(o),
			Switch: sim.Time(s), Comm: sim.Time(m)}
		if b.Total() == 0 {
			return true
		}
		f1, f2, f3, f4 := b.Fractions()
		return math.Abs(f1+f2+f3+f4-1) < 1e-12
	}
	if err := quick.Check(check, &quick.Config{Rand: rand.New(rand.NewSource(36))}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchKindString(t *testing.T) {
	want := map[SwitchKind]string{
		SwitchRemoteRead: "remote-read",
		SwitchIterSync:   "iter-sync",
		SwitchThreadSync: "thread-sync",
		SwitchExplicit:   "explicit",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if SwitchKind(99).String() != "switch(99)" {
		t.Errorf("unknown kind: %q", SwitchKind(99).String())
	}
}

func testRun(comm ...sim.Time) *Run {
	r := &Run{P: len(comm), PEs: make([]PE, len(comm))}
	for i, c := range comm {
		r.PEs[i].Times.Comm = c
	}
	return r
}

func TestMeanCommTime(t *testing.T) {
	r := testRun(10, 20, 30, 40)
	if got := r.MeanCommTime(); got != 25 {
		t.Fatalf("mean comm = %v, want 25", got)
	}
	if got := (&Run{}).MeanCommTime(); got != 0 {
		t.Fatalf("empty run mean comm = %v", got)
	}
}

func TestEfficiency(t *testing.T) {
	base := testRun(100, 100)
	half := testRun(50, 50)
	if got := Efficiency(base, half); got != 50 {
		t.Fatalf("efficiency = %v, want 50", got)
	}
	if got := Efficiency(base, base); got != 0 {
		t.Fatalf("self efficiency = %v, want 0", got)
	}
	// 95% overlap case (the paper's FFT result shape).
	fft := testRun(5, 5)
	if got := Efficiency(base, fft); got != 95 {
		t.Fatalf("efficiency = %v, want 95", got)
	}
	// Zero-baseline guard.
	if got := Efficiency(testRun(0, 0), half); got != 0 {
		t.Fatalf("zero-base efficiency = %v, want 0", got)
	}
}

func TestMeanSwitchesAndTotals(t *testing.T) {
	r := &Run{PEs: make([]PE, 2)}
	r.PEs[0].Switches[SwitchRemoteRead] = 10
	r.PEs[1].Switches[SwitchRemoteRead] = 20
	r.PEs[0].Switches[SwitchIterSync] = 4
	if got := r.MeanSwitches(SwitchRemoteRead); got != 15 {
		t.Fatalf("mean remote-read switches = %v, want 15", got)
	}
	if got := r.MeanSwitches(SwitchIterSync); got != 2 {
		t.Fatalf("mean iter-sync switches = %v, want 2", got)
	}
	if got := r.PEs[0].TotalSwitches(); got != 14 {
		t.Fatalf("total switches = %d, want 14", got)
	}
	if got := (&Run{}).MeanSwitches(SwitchIterSync); got != 0 {
		t.Fatal("empty run mean switches != 0")
	}
}

func TestTotalBreakdownAndSumCounter(t *testing.T) {
	r := &Run{PEs: make([]PE, 3)}
	for i := range r.PEs {
		r.PEs[i].Times = Breakdown{Compute: 10, Comm: 5}
		r.PEs[i].RemoteReads = uint64(i)
	}
	tb := r.TotalBreakdown()
	if tb.Compute != 30 || tb.Comm != 15 {
		t.Fatalf("total breakdown = %+v", tb)
	}
	got := r.SumCounter(func(p *PE) uint64 { return p.RemoteReads })
	if got != 3 {
		t.Fatalf("sum reads = %d, want 3", got)
	}
}
