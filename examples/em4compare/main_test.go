package main

import (
	"fmt"
	"testing"
)

// TestCitedSlowdown pins the figure EXPERIMENTS.md's X-em4 row cites
// from this example: EM-4 servicing slows the victim's workload by
// 84.1%, because its 700 serviced reads become 7000 EXU overhead cycles
// at PE 0 while the bypass run spends none.
func TestCitedSlowdown(t *testing.T) {
	bypass, exu, slow, err := compare()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.1f", 100*slow); got != "84.1" {
		t.Errorf("slowdown %s%%, want 84.1%%", got)
	}
	if b, e := bypass.PEs[0], exu.PEs[0]; b.Times.Overhead != 0 || b.ServicedDMA != 700 ||
		e.Times.Overhead != 7000 || e.ServicedEXU != 700 {
		t.Errorf("PE0 bypass overhead %d, DMA %d; EXU overhead %d, EXU %d; want 0, 700; 7000, 700",
			b.Times.Overhead, b.ServicedDMA, e.Times.Overhead, e.ServicedEXU)
	}
}
