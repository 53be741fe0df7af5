package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/sim"
)

// TestCoroutinesReleased checks that Run releases every thread
// coroutine it created, whether the run completes, deadlocks, exceeds
// its cycle budget, stops before a created thread first runs, or ends
// in a workload panic.
func TestCoroutinesReleased(t *testing.T) {
	cases := []struct {
		name    string
		build   func(t *testing.T) *Machine
		wantErr string // "" for a run that must succeed
	}{
		{"normal", func(t *testing.T) *Machine {
			m := newTestMachine(t, 2)
			for pe := packet.PE(0); pe < 2; pe++ {
				for h := 0; h < 3; h++ {
					m.SpawnAt(pe, "reader", 0, func(tc *TC) {
						tc.Compute(3)
						tc.Read(packet.GlobalAddr{PE: 1 - tc.PE(), Off: 7})
					})
				}
			}
			return m
		}, ""},
		{"deadlock", func(t *testing.T) *Machine {
			m := newTestMachine(t, 1)
			ws := m.NewWaitSet()
			m.SpawnAt(0, "stuck", 0, func(tc *TC) {
				tc.WaitUntil(metrics.SwitchIterSync, ws, func() bool { return false })
			})
			m.SpawnAt(0, "done", 0, func(tc *TC) { tc.Compute(1) })
			return m
		}, "deadlock"},
		{"max-cycles", func(t *testing.T) *Machine {
			m := newBudgetMachine(t, 1000)
			m.SpawnAt(0, "spinner", 0, func(tc *TC) {
				tc.SpinUntil(metrics.SwitchExplicit, func() bool { return false })
			})
			return m
		}, "exceeded"},
		{"never-started", func(t *testing.T) *Machine {
			// The budget ends after the invoke packet created the thread
			// but before its first step.
			cfg := DefaultConfig(1)
			m := newBudgetMachine(t, cfg.DispatchCycles+cfg.SpawnCycles-1)
			m.SpawnAt(0, "late", 0, func(tc *TC) { tc.Compute(1) })
			return m
		}, "exceeded"},
		{"panic", func(t *testing.T) *Machine {
			m := newTestMachine(t, 2)
			m.SpawnAt(1, "waiting", 0, func(tc *TC) {
				tc.Read(packet.GlobalAddr{PE: 0, Off: 1})
				tc.Yield(metrics.SwitchExplicit)
			})
			m.SpawnAt(0, "bad", 0, func(tc *TC) {
				tc.Compute(5)
				panic("boom")
			})
			return m
		}, "panicked: boom"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := c.build(t)
			_, err := m.Run()
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("Run: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("Run error = %v, want one containing %q", err, c.wantErr)
			}
			if len(m.allThreads) == 0 {
				t.Fatal("no thread was created")
			}
			if c.name == "never-started" && m.allThreads[0].state != stReady {
				t.Fatalf("thread state = %v, want ready", m.allThreads[0].state)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestFinishedCoroutineReleasedBeforeRunEnds checks that a thread's
// coroutine is released when the thread finishes, not at teardown.
func TestFinishedCoroutineReleasedBeforeRunEnds(t *testing.T) {
	m := newTestMachine(t, 1)
	before := runtime.NumGoroutine()
	for h := 0; h < 4; h++ {
		m.SpawnAt(0, "short", 0, func(tc *TC) { tc.Compute(1) })
	}
	// FIFO dispatch runs the four short threads to completion first.
	var during int
	m.SpawnAt(0, "last", 0, func(tc *TC) { during = runtime.NumGoroutine() })
	mustRun(t, m)
	if during > before+1 {
		t.Fatalf("%d goroutines while the last thread ran, want at most %d (its own coroutine)", during, before+1)
	}
}

func newBudgetMachine(t *testing.T, maxCycles sim.Time) *Machine {
	t.Helper()
	cfg := DefaultConfig(1)
	cfg.MemWords = 1 << 10
	cfg.MaxCycles = maxCycles
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitGoroutines polls, for a bounded time, until the goroutine count
// falls back to want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want at most %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}
