// Package core implements the EM-X fine-grain multithreading runtime on
// top of the simulated machine: explicit-switch threads bound to
// activation frames, split-phase remote reads that suspend the issuing
// thread, packet-driven thread invocation with hardware FIFO scheduling,
// dissemination barriers for iteration synchronization, and the cycle
// accounting (computation / overhead / communication / switching) the
// paper's evaluation is built on.
//
// Workload code is ordinary Go running as a coroutine per simulated
// thread: every interaction with the machine goes through a TC (thread
// context), which charges simulated cycles and may suspend the thread
// exactly where the EM-X hardware would.
package core

import (
	"fmt"

	"emx/internal/proc"
	"emx/internal/sim"
)

// Config holds the machine geometry and all timing parameters (in cycles;
// the EMC-Y runs at 20 MHz, so one cycle is 50 ns).
type Config struct {
	// P is the number of processors (the paper evaluates 16 and 64; the
	// prototype machine has 80).
	P int
	// MemWords is the local memory size per PE in 32-bit words.
	MemWords int

	// DispatchCycles: Matching Unit work to dequeue a packet, fetch the
	// template address and first instruction of the enabled thread.
	DispatchCycles sim.Time
	// SaveCycles: storing live registers to the activation frame when a
	// thread suspends (explicit switching — no register sharing).
	SaveCycles sim.Time
	// RestoreCycles: reloading registers when a thread resumes.
	RestoreCycles sim.Time
	// PacketGenCycles: EXU send instruction (one clock on the EMC-Y).
	PacketGenCycles sim.Time
	// SpawnCycles: allocating an activation frame and depositing arguments
	// when an invoke packet enables a new thread.
	SpawnCycles sim.Time
	// EXUServiceCycles: cost of servicing one remote request on the EXU in
	// the EM-4-compatible ServiceEXU mode.
	EXUServiceCycles sim.Time
	// SpinCheckCycles: the few instructions a synchronizing thread spends
	// testing its condition before yielding again.
	SpinCheckCycles sim.Time
	// MaxCycles aborts the simulation if it runs past this time (spinning
	// threads make true deadlocks manifest as livelocks). 0 means no limit.
	MaxCycles sim.Time

	// Proc configures the packet units (IBU/OBU/DMA, service mode).
	Proc proc.Config
}

// DefaultConfig returns the calibration used throughout the reproduction:
// a remote read round trip of ≈20–40 cycles (1–2 µs at 20 MHz) depending
// on machine size and load, matching the paper's Section 2.3.
func DefaultConfig(p int) Config {
	return Config{
		P:                p,
		MemWords:         1 << 20,
		DispatchCycles:   2,
		SaveCycles:       4,
		RestoreCycles:    4,
		PacketGenCycles:  1,
		SpawnCycles:      8,
		EXUServiceCycles: 10,
		SpinCheckCycles:  2,
		Proc:             proc.DefaultConfig(),
	}
}

// Validate checks the configuration for usability.
func (c Config) Validate() error {
	if c.P < 1 {
		return fmt.Errorf("core: P must be >= 1, got %d", c.P)
	}
	if c.MemWords <= 0 {
		return fmt.Errorf("core: MemWords must be positive, got %d", c.MemWords)
	}
	for _, v := range []sim.Time{
		c.DispatchCycles, c.SaveCycles, c.RestoreCycles, c.PacketGenCycles,
		c.SpawnCycles, c.EXUServiceCycles, c.SpinCheckCycles,
	} {
		if v < 0 {
			return fmt.Errorf("core: negative timing parameter in %+v", c)
		}
	}
	return nil
}
