// Em4compare demonstrates the EM-X's defining architectural feature: the
// by-passing DMA that services remote reads without consuming Execution
// Unit cycles. The same read-heavy workload runs twice — once with EM-X
// servicing (bypass) and once with the predecessor EM-4's behaviour
// (every request becomes a one-instruction EXU thread) — and the victim
// processor's slowdown is reported.
//
//	go run ./examples/em4compare
package main

import (
	"fmt"
	"log"

	"emx/internal/core"
	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/proc"
)

func run(mode proc.ServiceMode) (*metrics.Run, error) {
	cfg := core.DefaultConfig(8)
	cfg.MemWords = 1 << 12
	cfg.Proc.Mode = mode
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// PE 0 is a busy compute node; every other PE hammers it with reads.
	m.SpawnAt(0, "compute", 0, func(tc *core.TC) {
		for i := 0; i < 200; i++ {
			tc.Compute(50)
		}
	})
	for pe := packet.PE(1); pe < 8; pe++ {
		pe := pe
		m.SpawnAt(pe, "reader", 0, func(tc *core.TC) {
			for i := 0; i < 100; i++ {
				tc.Read(packet.GlobalAddr{PE: 0, Off: uint32(i)})
			}
		})
	}
	return m.Run()
}

// compare runs the workload under both service modes and returns the
// two runs and EM-4 servicing's slowdown, a fraction of the bypass
// makespan.
func compare() (bypass, exu *metrics.Run, slowdown float64, err error) {
	if bypass, err = run(proc.ServiceBypass); err != nil {
		return nil, nil, 0, err
	}
	if exu, err = run(proc.ServiceEXU); err != nil {
		return nil, nil, 0, err
	}
	return bypass, exu, float64(exu.Makespan)/float64(bypass.Makespan) - 1, nil
}

func main() {
	bypass, exu, slow, err := compare()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EM-X by-passing DMA vs EM-4 EXU servicing (700 remote reads at PE0)")
	fmt.Println()

	report := func(name string, r *metrics.Run) {
		pe0 := r.PEs[0]
		fmt.Printf("%-18s makespan %6d cyc | PE0: %5d compute, %5d overhead cyc, DMA %d / EXU %d serviced\n",
			name, r.Makespan, pe0.Times.Compute, pe0.Times.Overhead,
			pe0.ServicedDMA, pe0.ServicedEXU)
	}
	report("EM-X (bypass)", bypass)
	report("EM-4 (EXU)", exu)

	fmt.Printf("\nEM-4-style servicing slows this workload down by %.1f%%:\n", 100*slow)
	fmt.Println("request servicing steals the victim EXU's cycles, which is exactly")
	fmt.Println("why the EM-X routes remote memory traffic through the IBU/OBU path.")
}
