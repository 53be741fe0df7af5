package harness

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"emx/internal/obs"
)

// profiledSweep runs the small test sweep observed with the given worker
// count and returns the rendered profile JSON, text report, and Perfetto
// trace.
func profiledSweep(t *testing.T, workers int) (prof, report, trace []byte) {
	t.Helper()
	pc := NewProfileCollector(obs.Options{SliceCycles: 1024})
	s := smallSweep(Bitonic)
	s.Observe = pc
	if _, err := s.Run(workers); err != nil {
		t.Fatal(err)
	}
	merged, err := pc.Merged()
	if err != nil {
		t.Fatal(err)
	}
	var pj, rep, tr bytes.Buffer
	if err := merged.WriteJSON(&pj); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if err := pc.WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	return pj.Bytes(), rep.Bytes(), tr.Bytes()
}

// TestProfiledSweepWorkerInvariant is the headline determinism claim:
// every emxprof artifact — merged profile JSON, text report, Perfetto
// trace — is byte-identical whether the sweep ran on 1 worker or 8.
func TestProfiledSweepWorkerInvariant(t *testing.T) {
	p1, r1, t1 := profiledSweep(t, 1)
	p8, r8, t8 := profiledSweep(t, 8)
	if !bytes.Equal(p1, p8) {
		t.Error("merged profile JSON differs between workers=1 and workers=8")
	}
	if !bytes.Equal(r1, r8) {
		t.Error("text report differs between workers=1 and workers=8")
	}
	if !bytes.Equal(t1, t8) {
		t.Error("Perfetto trace differs between workers=1 and workers=8")
	}
}

func TestProfileCollectorPoints(t *testing.T) {
	pc := NewProfileCollector(obs.Options{Retain: obs.DefaultRetain})
	s := smallSweep(FFT)
	s.Observe = pc
	if _, err := s.Run(4); err != nil {
		t.Fatal(err)
	}
	pts := pc.Points()
	if want := len(s.PaperSizes) * len(s.Threads); len(pts) != want {
		t.Fatalf("collected %d points, want %d", len(pts), want)
	}
	for i, pt := range pts {
		if i > 0 && pts[i-1].Label > pt.Label {
			t.Fatalf("points not sorted: %q after %q", pt.Label, pts[i-1].Label)
		}
		if pt.Profile == nil || pt.Profile.P != s.P {
			t.Fatalf("point %q: bad profile %+v", pt.Label, pt.Profile)
		}
		if mach := pt.Profile.Machine(); mach.Total() == 0 {
			t.Fatalf("point %q: empty phase accounting", pt.Label)
		}
		if !strings.HasPrefix(pt.Label, "fft P=4") {
			t.Fatalf("point label = %q", pt.Label)
		}
	}
}

func TestProfileCollectorEmpty(t *testing.T) {
	pc := NewProfileCollector(obs.Options{})
	if _, err := pc.Merged(); err == nil {
		t.Error("Merged on empty collector should fail")
	}
	if err := pc.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteTrace on empty collector should fail")
	}
}

// TestObservedSweepMatchesUnobserved: attaching the profiler to a sweep
// must not change a single measured cycle.
func TestObservedSweepMatchesUnobserved(t *testing.T) {
	s := smallSweep(Bitonic)
	plain, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	s.Observe = NewProfileCollector(obs.Options{})
	observed, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	for si := range plain.Runs {
		for hi := range plain.Runs[si] {
			a, b := plain.Runs[si][hi], observed.Runs[si][hi]
			if a.Makespan != b.Makespan || a.SimEvents != b.SimEvents {
				t.Errorf("size %d h=%d: observed run differs (%d/%d vs %d/%d cycles/events)",
					s.PaperSizes[si], s.Threads[hi], a.Makespan, a.SimEvents, b.Makespan, b.SimEvents)
			}
		}
	}
}

func TestPointLabel(t *testing.T) {
	ps := PointSpec{Workload: Bitonic, P: 16, PaperN: 2 * M, SimN: 4096, H: 8}
	if got := ps.Label(); got != "bitonic P=16 n=2M h=8 bypass" {
		t.Errorf("Label = %q", got)
	}
	direct := PointSpec{Workload: SpMV, P: 4, SimN: 256, H: 2}
	if got := direct.Label(); got != "spmv P=4 n=256 h=2 bypass" {
		t.Errorf("direct Label = %q", got)
	}
}

// TestNoTwoThreadsRunAtOncePerPE is the EXU's one-thread-at-a-time
// invariant as a property: over every workload and a grid of machine
// sizes, thread counts and problem sizes, the running spans replayed
// from the thread events never overlap on one PE.
func TestNoTwoThreadsRunAtOncePerPE(t *testing.T) {
	pc := NewProfileCollector(obs.Options{Retain: obs.MaskOf(obs.CatThread)})
	for _, w := range []Workload{Bitonic, FFT, SpMV} {
		for _, pt := range []struct{ p, h, n int }{
			{2, 1, 16}, {2, 4, 64}, {4, 2, 32}, {4, 8, 256}, {8, 2, 128}, {16, 4, 1024},
		} {
			ps := PointSpec{Workload: w, P: pt.p, H: pt.h, SimN: pt.n, Seed: int64(pt.n)}
			if _, err := pc.RunPointObserved(ps); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, pt := range pc.Points() {
		if d := pt.Profile.Dropped[obs.CatThread]; d != 0 {
			t.Fatalf("%s: ring dropped %d thread events; spans would be incomplete", pt.Label, d)
		}
		byPE := map[int32][]obs.Span{}
		for _, b := range obs.Bands(pt.Events, pt.Names) {
			byPE[b.PE] = append(byPE[b.PE], b.Runs...)
		}
		if len(byPE) != pt.Profile.P {
			t.Fatalf("%s: thread spans on %d PEs, want %d", pt.Label, len(byPE), pt.Profile.P)
		}
		for pe, runs := range byPE {
			sort.Slice(runs, func(i, j int) bool {
				if runs[i].From != runs[j].From {
					return runs[i].From < runs[j].From
				}
				return runs[i].To < runs[j].To
			})
			for i := 1; i < len(runs); i++ {
				if runs[i].From < runs[i-1].To {
					t.Fatalf("%s PE%d: spans %+v and %+v run at once", pt.Label, pe, runs[i-1], runs[i])
				}
			}
		}
	}
}
