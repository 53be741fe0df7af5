// Sortviz reproduces the paper's Figure 4: multithreaded bitonic sorting
// of 8 elements on two processors with two threads each, rendered as
// per-thread timelines (running / suspended bands) plus the resulting
// sorted sequence.
//
//	go run ./examples/sortviz
package main

import (
	"fmt"
	"log"
	"os"

	"emx/internal/apps/bitonic"
	"emx/internal/core"
	"emx/internal/obs"
)

func main() {
	fmt.Println("Figure 4: two processors sort 8 elements with 2 threads each.")
	fmt.Println("Thread 0 reads/merges the first half of the mate's block,")
	fmt.Println("thread 1 the second half; merging must follow thread order.")
	fmt.Println()

	tr := obs.New(obs.Options{P: 2, Retain: obs.MaskOf(obs.CatThread)})
	if _, err := bitonic.Run(core.DefaultConfig(2), bitonic.Params{N: 8, H: 2, Seed: 42, Obs: tr}); err != nil {
		log.Fatal(err)
	}
	if err := obs.WriteTimeline(os.Stdout, tr.Profile(), tr.Events(), tr.Names()); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// A larger run with the irregularity visible: count how many reads
	// the early-completion optimization skipped.
	run, err := bitonic.Run(core.DefaultConfig(8), bitonic.Params{N: 512, H: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	var reads uint64
	for i := range run.PEs {
		reads += run.PEs[i].RemoteReads
	}
	// 6 merge steps on P=8: up to 64 reads per PE per step.
	possible := uint64(8 * 6 * 64)
	fmt.Printf("n=512, P=8, h=4: %d of %d possible remote reads issued (%d skipped) —\n",
		reads, possible, possible-reads)
	fmt.Println("\"not all the elements residing in the mate processor need to be read\".")
}
