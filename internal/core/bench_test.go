package core

import (
	"testing"

	"emx/internal/metrics"
	"emx/internal/packet"
)

// BenchmarkNonSuspendingOps drives the operations that do not suspend
// the thread: threads that compute, write remotely, and store locally
// in a tight loop, so nearly every simulated operation is a coroutine
// switch to the engine and straight back. The simCycles/s and events/s
// metrics are the host-throughput numbers BENCH_*.json tracks at the
// machine level.
func BenchmarkNonSuspendingOps(b *testing.B) {
	const (
		p       = 4
		threads = 4
		iters   = 200
	)
	var cycles, events float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(p)
		cfg.MemWords = 1 << 12
		cfg.MaxCycles = 1 << 32
		m, err := NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for pe := packet.PE(0); pe < p; pe++ {
			pe := pe
			for h := 0; h < threads; h++ {
				m.SpawnAt(pe, "bench", packet.Word(h), func(tc *TC) {
					dst := (pe + 1) % p
					for k := uint32(0); k < iters; k++ {
						tc.Compute(3)
						tc.LocalStore(k, packet.Word(k))
						tc.Write(packet.GlobalAddr{PE: dst, Off: 512 + k}, packet.Word(k))
					}
				})
			}
		}
		run, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += float64(run.Makespan)
		events += float64(run.SimEvents)
	}
	b.ReportMetric(cycles/b.Elapsed().Seconds(), "simCycles/s")
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkRemoteReadPath exercises the suspension path (split-phase
// reads resume through the handler lane), complementing the
// non-suspending benchmark above.
func BenchmarkRemoteReadPath(b *testing.B) {
	const p = 4
	var cycles, events float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(p)
		cfg.MemWords = 1 << 12
		cfg.MaxCycles = 1 << 32
		m, err := NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for pe := packet.PE(0); pe < p; pe++ {
			pe := pe
			m.SpawnAt(pe, "reader", 0, func(tc *TC) {
				src := (pe + 1) % p
				for k := uint32(0); k < 64; k++ {
					tc.Read(packet.GlobalAddr{PE: src, Off: k})
				}
			})
		}
		run, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += float64(run.Makespan)
		events += float64(run.SimEvents)
	}
	b.ReportMetric(cycles/b.Elapsed().Seconds(), "simCycles/s")
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSuspendResume measures the host cost of one simulated thread
// switch: two threads on one PE alternate explicit yields, so each
// operation suspends one coroutine and resumes the other. ns/switch
// includes the engine events of the yield and the redispatch.
func BenchmarkSuspendResume(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.MemWords = 1 << 10
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := b.N/2 + 1
	for h := 0; h < 2; h++ {
		m.SpawnAt(0, "yielder", 0, func(tc *TC) {
			for k := 0; k < n; k++ {
				tc.Yield(metrics.SwitchExplicit)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*n), "ns/switch")
}
