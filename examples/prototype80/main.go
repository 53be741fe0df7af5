// Prototype80 simulates the machine the paper actually ran on: the
// 80-processor EM-X prototype, operational at the Electrotechnical
// Laboratory since December 1995. The 80 EMC-Y processors route through a
// 128-node circular-Omega switch fabric (seven hops per route).
//
// The demo runs a multithreaded all-pairs-style kernel — every PE's h
// threads read from a mate PE across the machine with a short run length
// — and reports the latency-tolerance metrics at machine scale.
//
//	go run ./examples/prototype80
package main

import (
	"fmt"
	"log"

	"emx/internal/analytic"
	"emx/internal/core"
	"emx/internal/metrics"
	"emx/internal/packet"
)

const P = 80

func run(h int) (*metrics.Run, error) {
	cfg := core.DefaultConfig(P)
	cfg.MemWords = 1 << 12
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	bar := m.NewBarrier("iter", h)
	for pe := packet.PE(0); pe < P; pe++ {
		pe := pe
		for th := 0; th < h; th++ {
			th := th
			// Each thread reads from its own mate so the target's service
			// path does not become a hot spot at large h.
			mate := (pe + packet.PE(17*(th+1))) % P
			m.SpawnAt(pe, "w", packet.Word(th), func(tc *core.TC) {
				for it := 0; it < 4; it++ {
					for k := 0; k < 64/h; k++ {
						tc.Read(packet.GlobalAddr{PE: mate, Off: uint32(th*64 + k)})
						tc.Compute(12)
					}
					tc.Barrier(bar)
				}
			})
		}
	}
	return m.Run()
}

// row is the kernel at h threads per PE and its overlap efficiency (a
// percentage) against the single-threaded run.
type row struct {
	h       int
	run     *metrics.Run
	overlap float64
}

// sweep runs the kernel at h = 1, 2, 4 and 8; h=1 is the baseline.
func sweep() ([]row, error) {
	var rows []row
	for _, h := range []int{1, 2, 4, 8} {
		r, err := run(h)
		if err != nil {
			return nil, err
		}
		base := r
		if len(rows) > 0 {
			base = rows[0].run
		}
		rows = append(rows, row{h, r, metrics.Efficiency(base, r)})
	}
	return rows, nil
}

func main() {
	fmt.Printf("EM-X prototype: %d EMC-Y processors @ 20 MHz, 128-node circular Omega\n\n", P)

	cfg := core.DefaultConfig(P)
	cfg.MemWords = 1 << 10
	fmt.Printf("unloaded remote read: %d cycles (%.2f us)\n\n",
		analytic.MeasureLatency(cfg), analytic.MeasureLatency(cfg).Micros())

	rows, err := sweep()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-14s %-14s %-10s %-14s\n",
		"threads", "makespan(cyc)", "comm/PE(cyc)", "overlap E", "packets")
	for _, r := range rows {
		fmt.Printf("%-8d %-14d %-14.0f %8.1f%%  %-14d\n",
			r.h, r.run.Makespan, r.run.MeanCommTime(), r.overlap, r.run.PacketsSent)
	}
	fmt.Println("\n80 processors synchronize through ceil(log2(80)) = 7 dissemination")
	fmt.Println("rounds per barrier; every per-PE cycle decomposition still sums to")
	fmt.Println("the makespan exactly.")
}
