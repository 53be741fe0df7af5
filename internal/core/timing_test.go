package core

import (
	"testing"

	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/sim"
)

// TestObservationTiming pins when workload code observes the machine:
// every TC operation reaches the engine before the code after it runs,
// so clock reads, wake-ups, memory peeks and barrier arrivals happen at
// the simulated time the preceding work completed.
func TestObservationTiming(t *testing.T) {
	t.Run("now after compute and write", func(t *testing.T) {
		m := newTestMachine(t, 2)
		m.SpawnAt(0, "clock", 0, func(tc *TC) {
			t0 := tc.Now()
			tc.Compute(37)
			if got := tc.Now(); got != t0+37 {
				t.Errorf("Now after Compute(37) = %d, want %d", got, t0+37)
			}
			tc.Compute(5)
			tc.Write(packet.GlobalAddr{PE: 1, Off: 3}, 9)
			want := t0 + 37 + 5 + m.Cfg.PacketGenCycles
			if got := tc.Now(); got != want {
				t.Errorf("Now after Compute(5)+Write = %d, want %d", got, want)
			}
		})
		mustRun(t, m)
	})

	t.Run("notify wakes at the post-compute cycle", func(t *testing.T) {
		// The waiter's PE is idle when the setter notifies, so the waiter
		// runs exactly one dispatch and one register restore later.
		m := newTestMachine(t, 2)
		ws := m.NewWaitSet()
		flag := false
		var setAt, wokeAt sim.Time
		m.SpawnAt(0, "waiter", 0, func(tc *TC) {
			tc.WaitUntil(metrics.SwitchExplicit, ws, func() bool { return flag })
			wokeAt = tc.Now()
		})
		m.SpawnAt(1, "setter", 0, func(tc *TC) {
			setAt = tc.Now() + 200
			tc.Compute(200)
			flag = true
			ws.Notify()
		})
		mustRun(t, m)
		if want := setAt + m.Cfg.DispatchCycles + m.Cfg.RestoreCycles; wokeAt != want {
			t.Fatalf("waiter resumed at %d, want %d (notify at %d)", wokeAt, want, setAt)
		}
	})

	t.Run("peek after compute sees a remote write", func(t *testing.T) {
		// PE1's write lands in PE0's memory through the by-passing DMA
		// while PE0's thread computes; the peek after the compute sees it.
		m := newTestMachine(t, 2)
		var seen packet.Word
		m.SpawnAt(0, "reader", 0, func(tc *TC) {
			tc.Compute(1000)
			seen = tc.PeekLocal(5)
		})
		m.SpawnAt(1, "writer", 0, func(tc *TC) {
			tc.Write(packet.GlobalAddr{PE: 0, Off: 5}, 42)
		})
		mustRun(t, m)
		if seen != 42 {
			t.Fatalf("PeekLocal after Compute(1000) = %d, want 42", seen)
		}
	})

	t.Run("barrier arrival sees delivered tokens", func(t *testing.T) {
		// PE1 arrives at once and sends its token to PE0. PE0's thread
		// computes past the token's arrival and yields, so the EXU handles
		// the token before the thread reaches the barrier: the arrival
		// finds the round complete and passes without blocking.
		m := newTestMachine(t, 2)
		b := m.NewBarrier("b", 1)
		var arrived, passed sim.Time
		m.SpawnAt(0, "late", 0, func(tc *TC) {
			tc.Compute(1000)
			tc.Yield(metrics.SwitchExplicit)
			arrived = tc.Now()
			tc.Barrier(b)
			passed = tc.Now()
		})
		m.SpawnAt(1, "early", 0, func(tc *TC) { tc.Barrier(b) })
		r := mustRun(t, m)
		if got := r.PEs[0].Switches[metrics.SwitchIterSync]; got != 0 {
			t.Errorf("PE0 iter-sync switches = %d, want 0: the token was delivered before arrival", got)
		}
		if got := r.PEs[1].Switches[metrics.SwitchIterSync]; got != 1 {
			t.Errorf("PE1 iter-sync switches = %d, want 1", got)
		}
		if want := arrived + m.Cfg.PacketGenCycles; passed != want {
			t.Errorf("PE0 passed the barrier at %d, want %d (arrival plus its own token send)", passed, want)
		}
		if b.Episodes(0) != 1 || b.Episodes(1) != 1 {
			t.Errorf("episodes = %d/%d, want 1/1", b.Episodes(0), b.Episodes(1))
		}
	})

	t.Run("now after fused reads and barrier is the resume time", func(t *testing.T) {
		// The fused operations and the barrier's engine-side rounds
		// resume the coroutine once, at the event the tracer records as
		// the thread's ThreadRun: the read reply's (after ComputeRead,
		// ComputeReadPair and ComputeReadBlock), and the wake-up's after
		// a barrier whose last round blocked because PE1 arrives late.
		m := newTestMachine(t, 2)
		tr := obs.New(obs.Options{P: 2, Capacity: 1 << 12})
		m.SetObs(tr)
		b := m.NewBarrier("b", 1)
		var nows []sim.Time
		m.SpawnAt(0, "fused", 0, func(tc *TC) {
			tc.ComputeRead(10, packet.GlobalAddr{PE: 1, Off: 1})
			nows = append(nows, tc.Now())
			tc.ComputeReadPair(7, packet.GlobalAddr{PE: 1, Off: 2}, packet.GlobalAddr{PE: 1, Off: 3})
			nows = append(nows, tc.Now())
			tc.ComputeReadBlock(5, packet.GlobalAddr{PE: 1, Off: 4}, 3)
			nows = append(nows, tc.Now())
			tc.Barrier(b)
			nows = append(nows, tc.Now())
		})
		m.SpawnAt(1, "late", 0, func(tc *TC) {
			tc.Compute(2000)
			tc.Barrier(b)
		})
		r := mustRun(t, m)
		if got := r.PEs[0].Switches[metrics.SwitchIterSync]; got != 1 {
			t.Fatalf("PE0 iter-sync switches = %d, want 1: its last round must block", got)
		}
		// A pair resumes the thread after each reply, so the thread
		// runs once more than the operations above: the first Now is
		// at run 0, the pair's at run 2, the block's at run 3 and the
		// barrier's at run 4.
		var runs []sim.Time
		for _, ev := range tr.Events() {
			if ev.Cat == obs.CatThread && ev.PE == 0 && obs.ThreadKind(ev.Code) == obs.ThreadRun {
				runs = append(runs, sim.Time(ev.At))
			}
		}
		if len(runs) != 5 {
			t.Fatalf("PE0 thread ran %d times, want 5: %v", len(runs), runs)
		}
		for i, k := range []int{0, 2, 3, 4} {
			if nows[i] != runs[k] {
				t.Errorf("Now after operation %d = %d, want the ThreadRun at %d", i, nows[i], runs[k])
			}
		}
	})
}

// allocsPerIter returns the host allocations one loop iteration adds:
// run(1000) minus run(100), over the 900 extra iterations. The
// per-machine setup cancels out, so a hot path that allocates shows up
// as a positive per-iteration count.
func allocsPerIter(run func(iters int) func()) float64 {
	long := testing.AllocsPerRun(5, run(1000))
	short := testing.AllocsPerRun(5, run(100))
	return (long - short) / 900
}

// newAllocMachine builds the one-PE machine the allocation guards run
// on, traced when tr is non-nil.
func newAllocMachine(t *testing.T, tr *obs.Tracer) *Machine {
	cfg := DefaultConfig(1)
	cfg.MemWords = 1 << 10
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetObs(tr)
	return m
}

// TestNonSuspendingOpsDoNotAllocate pins zero host allocations per
// Compute and LocalStore: a run of 1000 iterations allocates no more
// than a run of 100, so the per-machine setup is the only cost.
func TestNonSuspendingOpsDoNotAllocate(t *testing.T) {
	perIter := allocsPerIter(func(iters int) func() {
		return func() {
			m := newAllocMachine(t, nil)
			m.SpawnAt(0, "ops", 0, func(tc *TC) {
				for k := 0; k < iters; k++ {
					tc.Compute(300) // above 255: boxing it would allocate
					tc.LocalStore(uint32(k%64), packet.Word(k))
				}
			})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perOp := perIter / 2; perOp > 0.01 {
		t.Fatalf("%.3f allocs per non-suspending op, want ~0", perOp)
	}
}

// TestTracedComputeDoesNotAllocate extends the pin to a run under an
// enabled tracer that aggregates time slices: every Compute charges
// Tracer.Cycle, which looks up its slice, and neither may allocate.
// The slice is wider than the run, so the slice list never grows.
func TestTracedComputeDoesNotAllocate(t *testing.T) {
	perIter := allocsPerIter(func(iters int) func() {
		return func() {
			m := newAllocMachine(t, obs.New(obs.Options{P: 1, Capacity: 64, SliceCycles: 1 << 30}))
			m.SpawnAt(0, "ops", 0, func(tc *TC) {
				for k := 0; k < iters; k++ {
					tc.Compute(300)
				}
			})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perIter > 0.01 {
		t.Fatalf("%.3f allocs per traced Compute, want ~0", perIter)
	}
}

// suspendAllocsPerRound bounds one round of TestTracedSuspendResumeAllocs,
// traced or not. A suspension allocates nothing: opWait is zero-size
// (its operands are staged on the thread), the resume packet comes from
// the machine's free list, and the on-chip FIFO is a fixed ring.
const suspendAllocsPerRound = 0

// TestTracedSuspendResumeAllocs pins the host allocations of a
// suspension under an enabled tracer. Two threads on one PE take turns
// through a WaitSet, so every round blocks and resumes each thread
// once, recording a thread event on the way out (ThreadYield) and on
// the way back in (ThreadRun).
func TestTracedSuspendResumeAllocs(t *testing.T) {
	perRound := allocsPerIter(func(rounds int) func() {
		return func() {
			m := newAllocMachine(t, obs.New(obs.Options{P: 1, Capacity: 64}))
			ws := m.NewWaitSet()
			turn := 0
			for me := 0; me < 2; me++ {
				me := me
				m.SpawnAt(0, "pingpong", 0, func(tc *TC) {
					myTurn := func() bool { return turn == me }
					for k := 0; k < rounds; k++ {
						tc.WaitUntil(metrics.SwitchThreadSync, ws, myTurn)
						turn = 1 - me
						ws.Notify()
					}
				})
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRound > suspendAllocsPerRound+0.01 {
		t.Fatalf("%.3f allocs per suspend/resume round, want at most %d", perRound, suspendAllocsPerRound)
	}
}

// TestRemoteReadDoesNotAllocate pins zero host allocations per
// split-phase remote read: the request packet comes from the free list,
// becomes its own reply at the remote PE, goes back to the list when
// the reply is consumed, and the value lands in the thread's resume
// slot without a per-read wait record.
func TestRemoteReadDoesNotAllocate(t *testing.T) {
	perRead := allocsPerIter(func(reads int) func() {
		return func() {
			cfg := DefaultConfig(2)
			cfg.MemWords = 1 << 10
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.SpawnAt(0, "reader", 0, func(tc *TC) {
				for k := 0; k < reads; k++ {
					tc.Read(packet.GlobalAddr{PE: 1, Off: uint32(k % 64)})
				}
			})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRead > 0.01 {
		t.Fatalf("%.3f allocs per remote read, want ~0", perRead)
	}
}

// TestComputeReadDoesNotAllocate extends the pin to the fused reads:
// ComputeRead and ComputeReadPair stage their continuation on the
// thread, so they allocate no more than Compute and Read do.
func TestComputeReadDoesNotAllocate(t *testing.T) {
	perIter := allocsPerIter(func(iters int) func() {
		return func() {
			cfg := DefaultConfig(2)
			cfg.MemWords = 1 << 10
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.SpawnAt(0, "reader", 0, func(tc *TC) {
				for k := 0; k < iters; k++ {
					tc.ComputeRead(300, packet.GlobalAddr{PE: 1, Off: uint32(k % 64)})
					tc.ComputeReadPair(300, packet.GlobalAddr{PE: 1, Off: uint32(k % 64)},
						packet.GlobalAddr{PE: 1, Off: uint32(k%64 + 64)})
				}
			})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perOp := perIter / 2; perOp > 0.01 {
		t.Fatalf("%.3f allocs per fused read, want ~0", perOp)
	}
}

// TestComputeReadBlockAllocatesOnlyResult pins ComputeReadBlock's host
// allocations to one per call: the slice it returns.
func TestComputeReadBlockAllocatesOnlyResult(t *testing.T) {
	perIter := allocsPerIter(func(iters int) func() {
		return func() {
			cfg := DefaultConfig(2)
			cfg.MemWords = 1 << 10
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.SpawnAt(0, "reader", 0, func(tc *TC) {
				for k := 0; k < iters; k++ {
					tc.ComputeReadBlock(300, packet.GlobalAddr{PE: 1, Off: uint32(k % 64)}, 4)
				}
			})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perIter > 1.01 {
		t.Fatalf("%.3f allocs per ComputeReadBlock, want 1 (the result slice)", perIter)
	}
}

// TestBarrierDoesNotAllocate pins zero host allocations per barrier
// episode: followers wait on a counter, not on a per-call closure; the
// last arrival's dissemination rounds run in the exu from state staged
// on the thread; and sync tokens and resumes come from the packet free
// list.
func TestBarrierDoesNotAllocate(t *testing.T) {
	perEpisode := allocsPerIter(func(episodes int) func() {
		return func() {
			cfg := DefaultConfig(4)
			cfg.MemWords = 1 << 10
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b := m.NewBarrier("b", 2)
			for pe := packet.PE(0); pe < 4; pe++ {
				for h := 0; h < 2; h++ {
					m.SpawnAt(pe, "member", 0, func(tc *TC) {
						for k := 0; k < episodes; k++ {
							tc.Compute(sim.Time(1 + h))
							tc.Barrier(b)
						}
					})
				}
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perEpisode > 0.01 {
		t.Fatalf("%.3f allocs per barrier episode, want ~0", perEpisode)
	}
}
