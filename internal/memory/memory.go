// Package memory models the EMC-Y local memory system: 4 MB of one-level
// static RAM per processor behind a Memory Control Unit (MCU) that
// arbitrates between the Execution Unit and the IBU by-passing DMA.
package memory

import (
	"fmt"

	"emx/internal/packet"
	"emx/internal/sim"
)

// DefaultWords is the simulated local memory size in 32-bit words. The real
// EMC-Y has 1 Mi words (4 MB); simulations may size memory to the workload.
const DefaultWords = 1 << 20

// AccessCycles is the MCU service time for one word access. Static RAM on
// the EMC-Y completes a word access in two processor cycles through the MCU.
const AccessCycles sim.Time = 2

// pageWords is the allocation granule of the backing store. Pages are
// materialized on first write; untouched pages read as zero, matching
// the semantics of one flat zeroed array without paying to clear the
// full address space of every PE up front.
const pageWords = 1 << 12

// Port identifies which unit is requesting the MCU.
type Port uint8

const (
	// PortEXU is the execution unit's load/store port.
	PortEXU Port = iota
	// PortDMA is the IBU by-passing DMA port used to service remote
	// read/write requests without interrupting the EXU.
	PortDMA
)

// Local is one PE's memory: a lazily-paged word array plus an MCU
// arbiter. The zero value is unusable; create with New.
type Local struct {
	pe    packet.PE
	size  int
	pages [][]packet.Word
	mcu   sim.Resource

	// Reads and Writes count word accesses by port.
	Reads  [2]uint64
	Writes [2]uint64
}

// New creates a local memory of n words for the given PE. Storage is
// allocated page-by-page on first write, so sizing memory generously
// costs nothing until it is touched.
func New(pe packet.PE, n int) *Local {
	if n <= 0 {
		n = DefaultWords
	}
	nPages := (n + pageWords - 1) / pageWords
	return &Local{pe: pe, size: n, pages: make([][]packet.Word, nPages)}
}

// Size returns the memory size in words.
func (m *Local) Size() int { return m.size }

// PE returns the owning processor number.
func (m *Local) PE() packet.PE { return m.pe }

func (m *Local) check(off uint32, n int) {
	if int(off) >= m.size || int(off)+n > m.size {
		panic(fmt.Sprintf("memory: PE%d access [%#x,%#x) out of range (size %#x words)",
			m.pe, off, int(off)+n, m.size))
	}
}

// load returns the word at off; unmaterialized pages read as zero.
func (m *Local) load(off uint32) packet.Word {
	p := m.pages[off>>12]
	if p == nil {
		return 0
	}
	return p[off&(pageWords-1)]
}

// store writes the word at off, materializing its page if needed.
func (m *Local) store(off uint32, w packet.Word) {
	pi := off >> 12
	p := m.pages[pi]
	if p == nil {
		p = make([]packet.Word, pageWords)
		m.pages[pi] = p
	}
	p[off&(pageWords-1)] = w
}

// Read performs an MCU-arbitrated single-word read at time now and returns
// the value and the completion time.
func (m *Local) Read(now sim.Time, port Port, off uint32) (packet.Word, sim.Time) {
	m.check(off, 1)
	m.Reads[port]++
	done := m.mcu.Acquire(now, AccessCycles)
	return m.load(off), done
}

// Write performs an MCU-arbitrated single-word write and returns its
// completion time.
func (m *Local) Write(now sim.Time, port Port, off uint32, w packet.Word) sim.Time {
	m.check(off, 1)
	m.Writes[port]++
	m.store(off, w)
	return m.mcu.Acquire(now, AccessCycles)
}

// ReadBlock reads n consecutive words starting at off, pipelined through
// the MCU (AccessCycles per word), returning the data and completion time.
// The words go into buf when it has room for them (a caller that
// services one block at a time reuses its buffer), else into a new slice.
func (m *Local) ReadBlock(now sim.Time, port Port, off uint32, n int, buf []packet.Word) ([]packet.Word, sim.Time) {
	m.check(off, n)
	m.Reads[port] += uint64(n)
	done := m.mcu.Acquire(now, AccessCycles*sim.Time(n))
	if cap(buf) < n {
		buf = make([]packet.Word, n)
	}
	out := buf[:n]
	for i := range out {
		out[i] = m.load(off + uint32(i))
	}
	return out, done
}

// MCUBusy returns total cycles the MCU has been occupied.
func (m *Local) MCUBusy() sim.Time { return m.mcu.Busy }

// Peek reads a word with no simulated cost. For workload setup and result
// verification outside simulated time.
func (m *Local) Peek(off uint32) packet.Word {
	m.check(off, 1)
	return m.load(off)
}

// Poke writes a word with no simulated cost (setup/verification only).
func (m *Local) Poke(off uint32, w packet.Word) {
	m.check(off, 1)
	m.store(off, w)
}

// PeekBlock copies n words starting at off with no simulated cost.
func (m *Local) PeekBlock(off uint32, n int) []packet.Word {
	m.check(off, n)
	out := make([]packet.Word, n)
	for i := range out {
		out[i] = m.load(off + uint32(i))
	}
	return out
}

// PokeBlock stores the words starting at off with no simulated cost.
func (m *Local) PokeBlock(off uint32, ws []packet.Word) {
	m.check(off, len(ws))
	for i, w := range ws {
		m.store(off+uint32(i), w)
	}
}
