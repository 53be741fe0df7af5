// Microbench measures the EM-X's primitive costs with EMC-Y assembly
// programs, following the paper's own methodology:
//
//   - T-lat: remote read round-trip latency via a pointer-chase loop
//     ("a typical remote read takes approximately 1 us");
//
//   - overhead: packet-generation cost via a null loop body that only
//     generates packets ("we measured the overhead by using a null loop
//     body, i.e., the loop body has no computation but instructions to
//     generate packets").
//
//     go run ./examples/microbench
package main

import (
	"fmt"
	"log"

	"emx/internal/core"
	"emx/internal/isa"
	"emx/internal/metrics"
)

const latencySrc = `
; 64 dependent remote reads from PE 1; run length ~4 cycles, h=1,
; so every round trip is fully exposed.
main:
    li r1, 1          ; mate PE
    li r2, 0          ; offset
    li r3, 64         ; iterations
    li r4, 0          ; i
loop:
    gaddr r5, r1, r2
    rread r6, r5      ; split-phase read: suspend, resume on reply
    addi r4, r4, 1
    blt r4, r3, loop
    halt
`

const nullLoopSrc = `
; The paper's overhead probe: a loop whose body only generates packets.
; 256 remote writes (fire-and-forget) to PE 1.
main:
    li r1, 1
    li r2, 0          ; offset
    li r3, 256
    li r4, 0
loop:
    gaddr r5, r1, r2
    rwrite r5, r4     ; one-cycle packet generation, no suspension
    addi r2, r2, 1
    addi r4, r4, 1
    blt r4, r3, loop
    halt
`

// latencyReads and nullPackets are the loop counts of the two programs:
// the divisors of their per-read and per-packet figures.
const (
	latencyReads = 64
	nullPackets  = 256
)

// result is one program's run on PE 0 of a P-PE machine.
type result struct {
	name string
	p    int
	run  *metrics.Run
}

// perUnit is the figure main reports for r: cycles per exposed remote
// read for the latency probe, overhead cycles per generated packet for
// the null loop.
func (r result) perUnit() float64 {
	if r.name == "latency" {
		return float64(r.run.Makespan) / latencyReads
	}
	return float64(r.run.PEs[0].Times.Overhead) / nullPackets
}

func runProg(name, src string, p int) (result, error) {
	prog, err := isa.Assemble(name, src)
	if err != nil {
		return result{}, err
	}
	cfg := core.DefaultConfig(p)
	cfg.MemWords = 1 << 12
	m, err := core.NewMachine(cfg)
	if err != nil {
		return result{}, err
	}
	if err := isa.Spawn(m, 0, prog, "main", 0); err != nil {
		return result{}, err
	}
	run, err := m.Run()
	if err != nil {
		return result{}, err
	}
	return result{name, p, run}, nil
}

// measure runs the latency probe at P=16 and P=64, then the null loop
// at P=16.
func measure() ([]result, error) {
	var out []result
	for _, pr := range []struct {
		name, src string
		p         int
	}{{"latency", latencySrc, 16}, {"latency", latencySrc, 64}, {"nulloop", nullLoopSrc, 16}} {
		r, err := runProg(pr.name, pr.src, pr.p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func main() {
	results, err := measure()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EMC-Y assembly microbenchmarks (paper Section 4 methodology)")
	fmt.Println()
	for _, r := range results {
		if r.name == "nulloop" { // a blank line sets the null loop apart
			fmt.Println()
		}
		b := r.run.PEs[0].Times
		fmt.Printf("%-10s P=%-3d makespan %6d cyc | compute %5d, overhead %4d, comm %5d, switch %5d\n",
			r.name, r.p, r.run.Makespan, b.Compute, b.Overhead, b.Comm, b.Switch)
		if r.name == "latency" {
			fmt.Printf("           -> %.1f cycles (%.2f us) per exposed remote read; paper: 20-40 cycles\n",
				r.perUnit(), r.perUnit()*0.05)
		} else {
			fmt.Printf("           -> %.2f overhead cycles per generated packet; paper: 1-clock send instruction\n",
				r.perUnit())
		}
	}
}
