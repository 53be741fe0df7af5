package core

import (
	"fmt"
	"sort"
	"testing"

	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/proc"
	"emx/internal/sim"
)

// spawnObsWorkload seeds a mixed workload exercising every charge site:
// remote reads, remote writes, barriers, explicit yields, local memory,
// and child spawns.
func spawnObsWorkload(m *Machine) {
	p := m.Cfg.P
	b := m.NewBarrier("iter", 2)
	for pe := packet.PE(0); pe < packet.PE(p); pe++ {
		pe := pe
		for th := 0; th < 2; th++ {
			th := th
			m.SpawnAt(pe, "w", packet.Word(th), func(tc *TC) {
				mate := (pe + packet.PE(p/2)) % packet.PE(p)
				for it := 0; it < 3; it++ {
					tc.Read(packet.GlobalAddr{PE: mate, Off: uint32(th*8 + it)})
					tc.Compute(sim.Time(15 + it))
					tc.Write(packet.GlobalAddr{PE: mate, Off: uint32(100 + it)}, 1)
					tc.LocalStore(uint32(th*4+it), packet.Word(it))
					tc.Yield(metrics.SwitchExplicit)
					tc.Barrier(b)
				}
				if th == 0 && it0(pe) {
					tc.Spawn(mate, "child", 9, func(tc2 *TC) { tc2.Compute(30) })
				}
			})
		}
	}
}

func it0(pe packet.PE) bool { return pe == 0 }

// spawnSpillWorkload queues far more threads on each PE than its
// 8-packet on-chip FIFO holds, each reading from the mate PE, so both
// the invocations and the read replies spill.
func spawnSpillWorkload(m *Machine) {
	p := m.Cfg.P
	for pe := packet.PE(0); pe < packet.PE(p); pe++ {
		for th := 0; th < 24; th++ {
			mate := (pe + 1) % packet.PE(p)
			m.SpawnAt(pe, "s", 0, func(tc *TC) {
				for it := 0; it < 3; it++ {
					tc.Read(packet.GlobalAddr{PE: mate, Off: uint32(th*4 + it)})
					tc.Compute(5)
				}
			})
		}
	}
}

// TestObservedRunMatchesMetrics pins the profile model to the existing
// metrics: the obs phase decomposition must tie out exactly against the
// Figure 8/9 accounting the simulator already produces, and the
// tracer's own charges, summed over its time slices, against both.
// The points cover by-passing DMA, queues that spill, and EM-4
// servicing on the EXU.
func TestObservedRunMatchesMetrics(t *testing.T) {
	for _, c := range []struct {
		name  string
		p     int
		exu   bool
		spawn func(*Machine)
		spill bool // every PE must have spill cycles
	}{
		{"mixed", 8, false, spawnObsWorkload, false},
		{"spill", 4, false, spawnSpillWorkload, true},
		{"exu-service", 4, true, spawnObsWorkload, false},
		{"exu-service-spill", 2, true, spawnSpillWorkload, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(c.p)
			cfg.MemWords = 1 << 16
			if c.exu {
				cfg.Proc.Mode = proc.ServiceEXU
			}
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New(obs.Options{P: c.p, SliceCycles: 100})
			m.SetObs(tr)
			c.spawn(m)
			r := mustRun(t, m)
			checkProfileMatchesRun(t, tr.Profile(), r)
			for pe := range r.PEs {
				if got := tr.Profile().PEs[pe].Phases[obs.PhaseSpill]; c.spill && got <= 0 {
					t.Errorf("PE%d spill phase = %d, want > 0", pe, got)
				}
				if st := &r.PEs[pe]; c.exu && (st.ServicedEXU == 0 || st.ServicedDMA != 0) {
					t.Errorf("PE%d serviced %d on the EXU and %d by DMA under EM-4 servicing",
						pe, st.ServicedEXU, st.ServicedDMA)
				}
			}
		})
	}
}

// checkProfileMatchesRun compares a traced run's profile with its
// metrics.
func checkProfileMatchesRun(t *testing.T, p *obs.Profile, r *metrics.Run) {
	t.Helper()
	if p.Makespan != int64(r.Makespan) {
		t.Fatalf("profile makespan = %d, metrics %d", p.Makespan, r.Makespan)
	}
	if p.Dispatched != r.SimEvents {
		t.Fatalf("profile engine events = %d, metrics %d", p.Dispatched, r.SimEvents)
	}
	for pe := range r.PEs {
		st, pp := &r.PEs[pe], &p.PEs[pe]
		if got, want := pp.Phases[obs.PhaseRun], int64(st.Times.Compute); got != want {
			t.Errorf("PE%d run = %d, metrics compute %d", pe, got, want)
		}
		if got, want := pp.Phases[obs.PhaseSwitch]+pp.Phases[obs.PhaseSpill], int64(st.Times.Switch); got != want {
			t.Errorf("PE%d switch+spill = %d, metrics switch %d", pe, got, want)
		}
		if got, want := pp.Phases[obs.PhaseService], int64(st.Times.Overhead); got != want {
			t.Errorf("PE%d service = %d, metrics overhead %d", pe, got, want)
		}
		if got, want := pp.Phases[obs.PhaseIdle], int64(st.Times.Comm); got != want {
			t.Errorf("PE%d idle = %d, metrics comm %d", pe, got, want)
		}
		if pp.Total() != int64(r.Makespan) {
			t.Errorf("PE%d phases sum to %d, makespan %d", pe, pp.Total(), r.Makespan)
		}
		for k := range st.Switches {
			if got, want := pp.Switches[k], st.Switches[k]; got != want {
				t.Errorf("PE%d switches[%s] = %d, metrics %d",
					pe, obs.SwitchCause(k), got, want)
			}
		}
		if pp.Dispatches != st.Dispatches {
			t.Errorf("PE%d dispatches = %d, metrics %d", pe, pp.Dispatches, st.Dispatches)
		}
		if pp.ServicedDMA != st.ServicedDMA || pp.ServicedEXU != st.ServicedEXU {
			t.Errorf("PE%d serviced = %d/%d, metrics %d/%d",
				pe, pp.ServicedDMA, pp.ServicedEXU, st.ServicedDMA, st.ServicedEXU)
		}
		if pp.Spills != st.Spills {
			t.Errorf("PE%d spills = %d, metrics %d", pe, pp.Spills, st.Spills)
		}
	}
	// The tracer's charges, slice by slice, add up to the same phases.
	var sliced [obs.NumPhases]int64
	for _, s := range p.Slices {
		for ph, v := range s.Phases {
			sliced[ph] += v
		}
	}
	if whole := p.Machine(); sliced != whole.Phases {
		t.Errorf("slices sum to %v, per-PE phases to %v", sliced, whole.Phases)
	}
	// Every packet passes one ejection port, and every remote one its
	// link hops too.
	if got, want := p.Machine().NetHops, r.PacketsHops+r.PacketsSent; got != want {
		t.Errorf("traced hops and ejections = %d, want %d", got, want)
	}
}

// TestObservationDoesNotPerturbTiming: attaching a tracer must not move
// a single simulated cycle — observation only.
func TestObservationDoesNotPerturbTiming(t *testing.T) {
	run := func(observe bool) *metrics.Run {
		m := newTestMachine(t, 8)
		if observe {
			m.SetObs(obs.New(obs.Options{P: 8, SliceCycles: 64}))
		}
		spawnObsWorkload(m)
		return mustRun(t, m)
	}
	plain, observed := run(false), run(true)
	if plain.Makespan != observed.Makespan || plain.SimEvents != observed.SimEvents {
		t.Fatalf("observation changed the run: %d/%d events vs %d/%d",
			plain.Makespan, plain.SimEvents, observed.Makespan, observed.SimEvents)
	}
	for pe := range plain.PEs {
		if plain.PEs[pe].Times != observed.PEs[pe].Times {
			t.Fatalf("PE%d accounting differs under observation", pe)
		}
	}
}

func TestObservedProfileDeterministic(t *testing.T) {
	run := func() []byte {
		m := newTestMachine(t, 8)
		tr := obs.New(obs.Options{P: 8, SliceCycles: 128})
		m.SetObs(tr)
		spawnObsWorkload(m)
		mustRun(t, m)
		var buf mutableBuf
		if err := tr.Profile().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("observed profile not byte-identical across identical runs")
	}
}

type mutableBuf struct{ b []byte }

func (m *mutableBuf) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

func TestSetObsValidation(t *testing.T) {
	m := newTestMachine(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("mis-sized tracer accepted")
		}
	}()
	m.SetObs(obs.New(obs.Options{P: 2}))
}

func TestThreadNamesRecorded(t *testing.T) {
	m := newTestMachine(t, 2)
	tr := obs.New(obs.Options{P: 2})
	m.SetObs(tr)
	m.SpawnAt(1, "alpha", 0, func(tc *TC) { tc.Compute(5) })
	mustRun(t, m)
	names := tr.Names()
	if len(names) != 1 || names[0].Name != "alpha" || names[0].PE != 1 {
		t.Fatalf("names = %+v", names)
	}
}

// runFigure4Machine reproduces the paper's Figure 4 setup with the obs
// tracer keeping only thread events: two PEs, two threads each, every
// thread reading four words from the mate PE and computing on each.
func runFigure4Machine(t *testing.T) *obs.Tracer {
	t.Helper()
	m := newTestMachine(t, 2)
	tr := obs.New(obs.Options{P: 2, Retain: obs.MaskOf(obs.CatThread)})
	m.SetObs(tr)
	for pe := packet.PE(0); pe < 2; pe++ {
		pe := pe
		for th := 0; th < 2; th++ {
			th := th
			m.SpawnAt(pe, "thd", packet.Word(th), func(tc *TC) {
				for k := 0; k < 4; k++ {
					tc.Read(packet.GlobalAddr{PE: 1 - pe, Off: uint32(th*4 + k)})
					tc.Compute(15)
				}
			})
		}
	}
	mustRun(t, m)
	return tr
}

func TestThreadLifecycleEvents(t *testing.T) {
	tr := runFigure4Machine(t)
	var n [obs.NumThreadKinds]int
	evs := tr.Events()
	for i, ev := range evs {
		if ev.Cat != obs.CatThread {
			t.Fatalf("retained a %s event under a thread-only mask", ev.Cat)
		}
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatal("events out of time order")
		}
		n[ev.Code]++
	}
	if n[obs.ThreadStart] != 4 || n[obs.ThreadEnd] != 4 {
		t.Fatalf("starts=%d ends=%d, want 4,4", n[obs.ThreadStart], n[obs.ThreadEnd])
	}
	if n[obs.ThreadRead] != 16 {
		t.Fatalf("read issues = %d, want 16", n[obs.ThreadRead])
	}
	if n[obs.ThreadRun] != n[obs.ThreadRead] {
		t.Fatalf("resumes = %d, want %d (one per read)", n[obs.ThreadRun], n[obs.ThreadRead])
	}
	if d := tr.Profile().Dropped[obs.CatThread]; d != 0 {
		t.Fatalf("dropped %d thread events at the default capacity", d)
	}
}

// TestThreadBandsAlternateRunSuspend: each thread runs from its start
// to its first read and from each resume to the next read or its end,
// so 1 start + 4 reads give 5 ordered, disjoint running spans.
func TestThreadBandsAlternateRunSuspend(t *testing.T) {
	tr := runFigure4Machine(t)
	bands := obs.Bands(tr.Events(), tr.Names())
	if len(bands) != 4 {
		t.Fatalf("bands = %d, want 4", len(bands))
	}
	for _, b := range bands {
		if b.Name != "thd" || len(b.Runs) != 5 {
			t.Fatalf("PE%d %q: %d running spans, want 5", b.PE, b.Name, len(b.Runs))
		}
		for i, s := range b.Runs {
			if s.To < s.From || (i > 0 && s.From < b.Runs[i-1].To) {
				t.Fatalf("PE%d frame %d: span %d %+v inverted or overlapping", b.PE, b.Frame, i, s)
			}
		}
	}
}

func TestNoTwoThreadsRunAtOnceOnOnePE(t *testing.T) {
	tr := runFigure4Machine(t)
	if err := concurrentRuns(obs.Bands(tr.Events(), tr.Names())); err != nil {
		t.Fatal(err)
	}
}

// concurrentRuns reports two running spans on one PE that overlap: the
// EXU runs one thread at a time.
func concurrentRuns(bands []obs.Band) error {
	byPE := map[int32][]obs.Span{}
	for _, b := range bands {
		byPE[b.PE] = append(byPE[b.PE], b.Runs...)
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
				return fmt.Errorf("PE%d: spans %+v and %+v run at once", pe, runs[i-1], runs[i])
			}
		}
	}
	return nil
}
