// Package memory models the EMC-Y local memory system: 4 MB of one-level
// static RAM per processor behind a Memory Control Unit (MCU) that
// arbitrates between the Execution Unit and the IBU by-passing DMA.
//
// The host keeps only the words a run has touched: one word slice per
// PE that covers offsets [0, len) and grows on a store beyond it. Words
// past the slice read as zero, as in one flat zeroed array, so a run's
// memory bytes follow the highest offset it writes, not the simulated
// size. The simulated size bounds every access and sets nothing else.
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

// minWords is the shortest word slice a PE allocates. At 64 words the
// blocks a small bitonic point writes take one more doubling per PE.
const minWords = 128

// Local is one PE's memory: the touched words plus an MCU arbiter. The
// EXU's load/store port and the IBU's by-passing DMA share the one MCU,
// so their accesses serialize in request order. The zero value is
// unusable; create with New.
type Local struct {
	pe    packet.PE
	size  int
	words []packet.Word // offsets [0, len(words)); the rest read as zero
	mcu   sim.Resource
}

// New creates a local memory of n words for the given PE. It allocates
// no words: the first store does, so sizing memory generously costs
// nothing until it is touched.
func New(pe packet.PE, n int) *Local {
	if n <= 0 {
		n = DefaultWords
	}
	return &Local{pe: pe, size: n}
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

// load returns the word at off; a word past the slice reads as zero.
func (m *Local) load(off uint32) packet.Word {
	if int(off) < len(m.words) {
		return m.words[off]
	}
	return 0
}

// store writes the word at off, growing the slice to cover it.
func (m *Local) store(off uint32, w packet.Word) {
	if int(off) >= len(m.words) {
		m.grow(int(off) + 1)
	}
	m.words[off] = w
}

// grow extends the slice to cover n words: to max(n, 2·len, minWords),
// capped at the simulated size.
func (m *Local) grow(n int) {
	n = max(n, 2*len(m.words), minWords)
	n = min(n, m.size)
	words := make([]packet.Word, n)
	copy(words, m.words)
	m.words = words
}

// Read performs an MCU-arbitrated single-word read at time now and returns
// the value and the completion time.
func (m *Local) Read(now sim.Time, off uint32) (packet.Word, sim.Time) {
	m.check(off, 1)
	done := m.mcu.Acquire(now, AccessCycles)
	return m.load(off), done
}

// Write performs an MCU-arbitrated single-word write and returns its
// completion time.
func (m *Local) Write(now sim.Time, off uint32, w packet.Word) sim.Time {
	m.check(off, 1)
	m.store(off, w)
	return m.mcu.Acquire(now, AccessCycles)
}

// ReadBlock reads n consecutive words starting at off, pipelined through
// the MCU (AccessCycles per word), returning the data and completion time.
// The words go into buf when it has room for them (a caller that
// services one block at a time reuses its buffer), else into a new slice.
func (m *Local) ReadBlock(now sim.Time, off uint32, n int, buf []packet.Word) ([]packet.Word, sim.Time) {
	m.check(off, n)
	done := m.mcu.Acquire(now, AccessCycles*sim.Time(n))
	if cap(buf) < n {
		buf = make([]packet.Word, n)
	}
	out := buf[:n]
	var k int
	if int(off) < len(m.words) {
		k = copy(out, m.words[off:])
	}
	clear(out[k:])
	return out, done
}

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
