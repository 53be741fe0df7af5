package harness

import (
	"strings"
	"testing"
	"time"

	"emx/internal/metrics"
	"emx/internal/proc"
)

// smallSweep keeps simulations tiny: paper size 64K at scale 512 -> 128
// elements on 4 PEs.
func smallSweep(w Workload) Sweep {
	return Sweep{
		Workload:   w,
		P:          4,
		PaperSizes: []int{128 * K, 64 * K},
		Scale:      512,
		Threads:    []int{1, 2, 4},
		Seed:       42,
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{
		8 * M:   "8M",
		512 * K: "512K",
		256 * K: "256K",
		100:     "100",
		3 * M:   "3M",
	}
	for n, want := range cases {
		if got := SizeLabel(n); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestDefaultSizes(t *testing.T) {
	s16 := DefaultSizes(16)
	s64 := DefaultSizes(64)
	if s16[0] != 2*M || s16[len(s16)-1] != 128*K {
		t.Errorf("P=16 sizes = %v", s16)
	}
	if s64[0] != 8*M || s64[len(s64)-1] != 512*K {
		t.Errorf("P=64 sizes = %v", s64)
	}
}

func TestSimSizeClamped(t *testing.T) {
	s := Sweep{P: 16, Scale: 1 << 20, Threads: []int{16}}
	// 512K / 1M < 1 element: must clamp to >= P*maxH.
	if got := s.SimSize(512 * K); got < 16*16 {
		t.Errorf("SimSize = %d, want >= 256", got)
	}
	s2 := Sweep{P: 4, Scale: 512, Threads: []int{1}}
	if got := s2.SimSize(64 * K); got != 128 {
		t.Errorf("SimSize = %d, want 128", got)
	}
}

// TestSimSizeTerminatesOnHugeP: a P whose clamp target lies past the
// int range once made the doubling wrap to 0 and spin forever. The
// serving path bounds P first; SimSize must return regardless.
func TestSimSizeTerminatesOnHugeP(t *testing.T) {
	done := make(chan int, 1)
	go func() { done <- Sweep{P: 1<<62 + 1, Scale: 1, Threads: []int{1}}.SimSize(1) }()
	select {
	case n := <-done:
		if n <= 0 {
			t.Errorf("SimSize = %d, want a positive size", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SimSize did not return for P = 2^62+1")
	}
}

func TestRunPointVerifies(t *testing.T) {
	for _, w := range []Workload{Bitonic, FFT, SpMV} {
		run, err := RunPoint(PointSpec{
			Workload: w, P: 4, SimN: 128, PaperN: 64 * K, H: 2, Seed: 1, Verify: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		if run.PaperN != 64*K || run.P != 4 || run.H != 2 {
			t.Fatalf("%v: run metadata %+v", w, run)
		}
	}
}

func TestRunPointUnknownWorkload(t *testing.T) {
	if _, err := RunPoint(PointSpec{Workload: Workload(9), P: 2, SimN: 8, H: 1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSweepGridComplete(t *testing.T) {
	res, err := smallSweep(Bitonic).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("%d size rows", len(res.Runs))
	}
	for si, row := range res.Runs {
		if len(row) != 3 {
			t.Fatalf("size %d: %d thread cells", si, len(row))
		}
		for hi, run := range row {
			if run == nil {
				t.Fatalf("missing run at (%d,%d)", si, hi)
			}
			if run.H != res.Threads[hi] {
				t.Fatalf("cell (%d,%d) has H=%d", si, hi, run.H)
			}
		}
	}
}

func TestSweepParallelDeterminism(t *testing.T) {
	a, err := smallSweep(FFT).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallSweep(FFT).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Runs {
		for hi := range a.Runs[si] {
			if a.Runs[si][hi].Makespan != b.Runs[si][hi].Makespan {
				t.Fatalf("cell (%d,%d) differs across worker counts", si, hi)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := smallSweep(Bitonic).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	f := Fig6(res)
	if len(f.Series) != 2 || len(f.Series[0].Y) != 3 {
		t.Fatalf("figure shape: %d series x %d", len(f.Series), len(f.Series[0].Y))
	}
	// Valley: comm time at h=2 and h=4 below h=1 for every size.
	for _, s := range f.Series {
		if s.Y[1] >= s.Y[0] || s.Y[2] >= s.Y[0] {
			t.Fatalf("no comm valley in %q: %v", s.Label, s.Y)
		}
	}
	if !f.LogY {
		t.Fatal("Fig6 should be log scale")
	}
}

func TestFig7BaselineZero(t *testing.T) {
	res, err := smallSweep(FFT).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Fig7(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if s.Y[0] != 0 {
			t.Fatalf("h=1 efficiency = %v in %q, want 0", s.Y[0], s.Label)
		}
		for _, y := range s.Y {
			if y < -100 || y > 100 {
				t.Fatalf("efficiency out of range: %v", y)
			}
		}
	}
	// FFT overlap at h=2 should be large.
	if f.Series[0].Y[1] < 60 {
		t.Fatalf("FFT h=2 efficiency = %v, want >60%%", f.Series[0].Y[1])
	}
}

func TestFig7NeedsBaseline(t *testing.T) {
	s := smallSweep(Bitonic)
	s.Threads = []int{2, 4}
	res, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig7(res); err == nil {
		t.Fatal("Fig7 without h=1 accepted")
	}
}

func TestFig8SumsTo100(t *testing.T) {
	res, err := smallSweep(Bitonic).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Fig8(res, 64*K)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("%d components", len(f.Series))
	}
	for hi := range f.X {
		sum := 0.0
		for _, s := range f.Series {
			sum += s.Y[hi]
		}
		if sum < 99.99 || sum > 100.01 {
			t.Fatalf("components at h=%d sum to %v", f.X[hi], sum)
		}
	}
	if _, err := Fig8(res, 999); err == nil {
		t.Fatal("unknown size accepted")
	}
}

func TestFig9SwitchCurves(t *testing.T) {
	res, err := smallSweep(Bitonic).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Fig9(res, 128*K)
	if err != nil {
		t.Fatal(err)
	}
	var remote, thread Series
	for _, s := range f.Series {
		switch s.Label {
		case "remote read switch":
			remote = s
		case "thread sync switch":
			thread = s
		}
	}
	// Remote-read switches must dominate and stay roughly flat in h.
	for i, y := range remote.Y {
		if y <= 0 {
			t.Fatalf("remote switches[%d] = %v", i, y)
		}
	}
	// Sorting with h>1 shows thread-sync switches.
	if thread.Y[2] == 0 {
		t.Fatal("no thread-sync switches at h=4")
	}
	if thread.Y[0] != 0 {
		t.Fatal("thread-sync switches at h=1")
	}
}

func TestCompareSweepsEM4(t *testing.T) {
	bypass := smallSweep(Bitonic)
	em4 := smallSweep(Bitonic)
	em4.Mode = proc.ServiceEXU
	rb, err := bypass.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	re, err := em4.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := CompareSweeps("em4", "EM-X bypass vs EM-4 EXU servicing", "makespan (s)",
		64*K, MakespanSeconds,
		LabelledSweep{"EM-X bypass", rb}, LabelledSweep{"EM-4 EXU service", re})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("%d series", len(f.Series))
	}
	// EXU servicing steals cycles: it must never be faster.
	for i := range f.X {
		if f.Series[1].Y[i] < f.Series[0].Y[i] {
			t.Fatalf("EM-4 mode faster at h=%d: %v < %v", f.X[i], f.Series[1].Y[i], f.Series[0].Y[i])
		}
	}
}

func TestRenderTableCSVChart(t *testing.T) {
	res, err := smallSweep(FFT).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	f := Fig6(res)
	tab := f.Table()
	if !strings.Contains(tab, "n=128K") || !strings.Contains(tab, "h =") {
		t.Fatalf("table missing content:\n%s", tab)
	}
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv rows = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "series,h=1,h=2,h=4") {
		t.Fatalf("csv header %q", lines[0])
	}
	chart := f.Chart(10)
	if !strings.Contains(chart, "o = n=128K") {
		t.Fatalf("chart legend missing:\n%s", chart)
	}
	if strings.Count(chart, "\n") < 10 {
		t.Fatalf("chart too short:\n%s", chart)
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape("a,b") != `"a,b"` || csvEscape(`say "hi"`) != `"say ""hi"""` || csvEscape("plain") != "plain" {
		t.Fatal("csv escaping wrong")
	}
}

func TestChartEmpty(t *testing.T) {
	f := Figure{Title: "empty", LogY: true, X: []int{1}, Series: []Series{{Label: "z", Y: []float64{0}}}}
	if !strings.Contains(f.Chart(5), "no data") {
		t.Fatal("empty log chart should say no data")
	}
}

func TestWorkloadString(t *testing.T) {
	if Bitonic.String() != "bitonic" || FFT.String() != "fft" || SpMV.String() != "spmv" {
		t.Fatal("bad workload names")
	}
	if Workload(9).String() != "workload(?)" {
		t.Fatal("unknown workload name")
	}
}

func TestMetricsHelpers(t *testing.T) {
	r := &metrics.Run{Makespan: 20_000_000, PEs: make([]metrics.PE, 1)}
	r.PEs[0].Times.Comm = 20_000_000
	if MakespanSeconds(r) != 1.0 {
		t.Fatalf("makespan seconds = %v", MakespanSeconds(r))
	}
	if CommSeconds(r) != 1.0 {
		t.Fatalf("comm seconds = %v", CommSeconds(r))
	}
}

func TestReplyHighSweepCorrect(t *testing.T) {
	// The resume-first policy must not break the workloads: verified runs
	// succeed and are deterministic.
	for _, w := range []Workload{Bitonic, FFT} {
		run, err := RunPoint(PointSpec{
			Workload: w, P: 4, SimN: 128, PaperN: 128, H: 4,
			ReplyHigh: true, Seed: 2, Verify: true,
		})
		if err != nil {
			t.Fatalf("%v with resume-first replies: %v", w, err)
		}
		run2, err := RunPoint(PointSpec{
			Workload: w, P: 4, SimN: 128, PaperN: 128, H: 4,
			ReplyHigh: true, Seed: 2, Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if run.Makespan != run2.Makespan {
			t.Fatalf("%v resume-first nondeterministic", w)
		}
	}
}
