package core

import (
	"testing"

	"emx/internal/metrics"
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
}

// TestNonSuspendingOpsDoNotAllocate pins zero host allocations per
// Compute and LocalStore: a run of 1000 iterations allocates no more
// than a run of 100, so the per-machine setup is the only cost. Both
// runs first step the clock one cycle at a time past the engine's
// near-future ring, whose buckets allocate on first use.
func TestNonSuspendingOpsDoNotAllocate(t *testing.T) {
	run := func(iters int) func() {
		return func() {
			cfg := DefaultConfig(1)
			cfg.MemWords = 1 << 10
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.SpawnAt(0, "ops", 0, func(tc *TC) {
				for k := 0; k < 1024; k++ {
					tc.Compute(1)
				}
				for k := 0; k < iters; k++ {
					tc.Compute(300) // above 255: boxing it would allocate
					tc.LocalStore(uint32(k%64), packet.Word(k))
				}
			})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	long := testing.AllocsPerRun(5, run(1000))
	short := testing.AllocsPerRun(5, run(100))
	if perOp := (long - short) / (2 * 900); perOp > 0.01 {
		t.Fatalf("%.3f allocs per non-suspending op (%.0f allocs for 1000 iterations, %.0f for 100), want ~0",
			perOp, long, short)
	}
}
