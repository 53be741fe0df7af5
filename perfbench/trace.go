package main

import (
	"runtime"
	"time"

	"emx/internal/metrics"
)

// simCounts sums the exact simulator counters (from metrics.Run) over a
// fixed set of runs, so they repeat exactly from run to run.
type simCounts struct {
	events, cycles                 uint64
	remote, iterSync, threadSync   uint64
	dispatches, spills             uint64
	packets, hops, queueDelay, dma uint64
}

func (s *simCounts) add(r *metrics.Run) {
	s.events += r.SimEvents
	s.cycles += uint64(r.Makespan)
	s.packets += r.PacketsSent
	s.hops += r.PacketsHops
	s.queueDelay += uint64(r.NetQueueDelay)
	for i := range r.PEs {
		pe := &r.PEs[i]
		s.remote += pe.Switches[metrics.SwitchRemoteRead]
		s.iterSync += pe.Switches[metrics.SwitchIterSync]
		s.threadSync += pe.Switches[metrics.SwitchThreadSync]
		s.dispatches += pe.Dispatches
		s.spills += pe.Spills
		s.dma += pe.ServicedDMA
	}
}

func (s simCounts) set(r *report) {
	for name, v := range map[string]uint64{
		"sim.events":                 s.events,
		"sim.cycles":                 s.cycles,
		"core.switch.remote_read":    s.remote,
		"core.switch.iter_sync":      s.iterSync,
		"core.switch.thread_sync":    s.threadSync,
		"core.dispatches":            s.dispatches,
		"core.spills":                s.spills,
		"network.packets":            s.packets,
		"network.hops":               s.hops,
		"network.queue_delay_cycles": s.queueDelay,
		"proc.serviced_dma":          s.dma,
	} {
		r.set(name, float64(v))
	}
}

// runtimeMetrics reports the Go runtime's allocation and GC work
// between two MemStats readings, per operation.
func runtimeMetrics(r *report, a, b *runtime.MemStats, ops int) {
	r.set("runtime.alloc_kb_per_op", ratio(float64(b.TotalAlloc-a.TotalAlloc)/1024, float64(ops)))
	r.set("runtime.gc_cycles", float64(b.NumGC-a.NumGC))
}

// traceServe is a serving workload's traced run. For trace.overhead_pct
// it sends closed-loop bursts of burst requests with the handler timers
// off and on, alternating, after one warm-up burst, and compares the
// median wall times. Then it runs measure (which returns its operation
// count and the distinct keys it executed) with every layer traced and
// under the CPU profiler, and reports the layer metrics of that window.
func traceServe(b *bench, l *lab, burst int, sendBurst func(n int), measure func() (ops, distinct int, err error)) error {
	rep := b.rep
	var walls [2][]float64 // [timers off, timers on]
	for i := -1; i < 6; i++ {
		on := i%2 == 1
		l.tracing(on)
		t0 := time.Now()
		sendBurst(burst)
		if i >= 0 {
			walls[i%2] = append(walls[i%2], time.Since(t0).Seconds())
		}
		if err := l.flush(); err != nil {
			return err
		}
	}
	l.tracing(true)
	rep.set("trace.overhead_pct", 100*(median(walls[1])/median(walls[0])-1))
	rep.detail["trace.bursts"] = map[string]any{"n": burst, "off_s": walls[0], "on_s": walls[1]}

	var (
		a, z          labSnap
		m0, m1        runtime.MemStats
		ops, distinct int
	)
	shares, err := profileCPU(func() error {
		runtime.ReadMemStats(&m0)
		a = l.snap()
		var err error
		ops, distinct, err = measure()
		z = l.snap()
		runtime.ReadMemStats(&m1)
		return err
	})
	if err != nil {
		return err
	}
	l.layerMetrics(rep, a, z, distinct)
	shares.set(rep)
	runtimeMetrics(rep, &m0, &m1, ops)
	// The sweep layer runs no panels here.
	rep.set("harness.point_s_p50", 0)
	rep.set("harness.point_s_max", 0)
	return nil
}
