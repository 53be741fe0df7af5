// Package thread provides the EMC-Y thread-side hardware structure: the
// packet queue that implements hardware FIFO thread scheduling (two
// priority levels of on-chip FIFOs, eight packets each, spilling to local
// memory when full). Activation frames live in package core, one table
// per PE mapping frame IDs to threads.
package thread

import "emx/internal/packet"

// OnChipCap is the capacity of each on-chip priority FIFO in packets.
const OnChipCap = 8

// Prio selects one of the IBU's two packet-buffer priority levels.
type Prio uint8

const (
	// High priority: serviced before all normal packets (used for
	// EM-4-style EXU servicing threads in the ablation mode).
	High Prio = iota
	// Low priority: normal thread invocations and read replies.
	Low
	nPrio
)

// Queue is the hardware packet queue feeding the Matching Unit. Packets
// are dispatched in FIFO order within a priority level, High before Low.
// Pushes beyond the on-chip capacity overflow to an on-memory buffer and
// are restored to the on-chip FIFO as it drains, preserving order: a
// level's spill buffer holds packets only while its on-chip FIFO is
// full, so every packet leaves through the on-chip FIFO.
//
// Each on-chip FIFO is a fixed ring of OnChipCap slots and the spill
// buffer reuses its backing array once it drains, so a queue in steady
// state does not allocate.
type Queue struct {
	onchip [nPrio]fifo
	spill  [nPrio]spillBuf

	// Restored counts spilled packets moved back on chip; each costs
	// extra MCU traffic that the processor model charges.
	Restored uint64
}

// fifo is one on-chip FIFO: a ring of OnChipCap slots.
type fifo struct {
	slots   [OnChipCap]*packet.Packet
	head, n int
}

func (f *fifo) push(pkt *packet.Packet) {
	f.slots[(f.head+f.n)%OnChipCap] = pkt
	f.n++
}

func (f *fifo) pop() *packet.Packet {
	pkt := f.slots[f.head]
	f.slots[f.head] = nil
	f.head = (f.head + 1) % OnChipCap
	f.n--
	return pkt
}

// spillBuf is the on-memory overflow buffer of one priority level:
// pkts[head:] are queued, and the backing array is reused once it
// drains.
type spillBuf struct {
	pkts []*packet.Packet
	head int
}

func (s *spillBuf) len() int { return len(s.pkts) - s.head }

func (s *spillBuf) push(pkt *packet.Packet) {
	if len(s.pkts) == cap(s.pkts) && s.head > 0 {
		// Full behind a popped prefix: slide the queued packets down
		// instead of growing the array.
		n := copy(s.pkts, s.pkts[s.head:])
		clear(s.pkts[n:])
		s.pkts = s.pkts[:n]
		s.head = 0
	}
	s.pkts = append(s.pkts, pkt)
}

func (s *spillBuf) pop() *packet.Packet {
	pkt := s.pkts[s.head]
	s.pkts[s.head] = nil
	s.head++
	if s.head == len(s.pkts) {
		s.pkts = s.pkts[:0]
		s.head = 0
	}
	return pkt
}

// Len returns the number of queued packets across both priorities.
func (q *Queue) Len() int {
	n := 0
	for p := Prio(0); p < nPrio; p++ {
		n += q.onchip[p].n + q.spill[p].len()
	}
	return n
}

// Empty reports whether no packets are queued.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// Push enqueues a packet at the given priority, returning true if it had
// to spill to the on-memory buffer. While the on-chip FIFO has room the
// spill buffer is empty, so a packet goes on chip exactly then.
func (q *Queue) Push(p Prio, pkt *packet.Packet) (spilled bool) {
	if q.onchip[p].n < OnChipCap {
		q.onchip[p].push(pkt)
		return false
	}
	q.spill[p].push(pkt)
	return true
}

// Pop dequeues the next packet: High FIFO first, then Low, FIFO within
// each, refilling the freed on-chip slot from the spill buffer. ok is
// false when empty.
func (q *Queue) Pop() (pkt *packet.Packet, ok bool) {
	for p := Prio(0); p < nPrio; p++ {
		if q.onchip[p].n > 0 {
			pkt = q.onchip[p].pop()
			q.refill(p)
			return pkt, true
		}
	}
	return nil, false
}

// refill moves spilled packets back into freed on-chip slots, as the IBU
// does automatically when the FIFO drains.
func (q *Queue) refill(p Prio) {
	for q.onchip[p].n < OnChipCap && q.spill[p].len() > 0 {
		q.onchip[p].push(q.spill[p].pop())
		q.Restored++
	}
}
