// Package packet defines the EM-X wire format: fixed-size two-word packets
// carrying remote reads, writes, thread invocations, and synchronization
// messages over the circular Omega network.
//
// On the real machine every packet is exactly two 32-bit words: an address
// word (destination global address, or the continuation a reply targets)
// and a data word (the value, or the requester's continuation). The Go
// struct below keeps those two architectural words plus simulation-side
// metadata (source PE, tags) that the hardware would encode inside the
// words themselves.
package packet

import "fmt"

// Word is the EM-X machine word: 32 bits, as in the EMC-Y.
type Word uint32

// PE identifies a processing element (processor number).
type PE int32

// offBits is the number of low bits of a global address word holding the
// local word offset; the remaining high bits hold the PE number. 4 MB of
// local memory = 1 Mi words, so 20 bits of offset leave 12 bits of PE
// number — far more than the 80 PEs of the prototype.
const offBits = 20

// MaxOffset is the largest encodable local word offset.
const MaxOffset = 1<<offBits - 1

// MaxPE is the largest encodable processor number.
const MaxPE = 1<<(32-offBits) - 1

// GlobalAddr is a word-granularity address in the machine-wide address
// space: processor number plus local word offset, exactly the encoding the
// EM-X compiler uses for its global address space.
type GlobalAddr struct {
	PE  PE
	Off uint32
}

// Pack encodes the global address into a single 32-bit word.
func (g GlobalAddr) Pack() Word {
	return Word(uint32(g.PE)<<offBits | g.Off&MaxOffset)
}

// UnpackAddr decodes a packed global address word.
func UnpackAddr(w Word) GlobalAddr {
	return GlobalAddr{PE: PE(uint32(w) >> offBits), Off: uint32(w) & MaxOffset}
}

// Valid reports whether the address is encodable.
func (g GlobalAddr) Valid() bool {
	return g.PE >= 0 && g.PE <= MaxPE && g.Off <= MaxOffset
}

// Add returns the address displaced by d words on the same PE.
func (g GlobalAddr) Add(d uint32) GlobalAddr {
	return GlobalAddr{PE: g.PE, Off: g.Off + d}
}

func (g GlobalAddr) String() string { return fmt.Sprintf("PE%d+%#x", g.PE, g.Off) }

// Continuation identifies where a read reply or a call result resumes
// execution: a frame slot on a PE. On hardware it is the return-address
// word of a read-request packet.
type Continuation struct {
	PE    PE
	Frame uint32 // activation frame id on that PE
	Slot  uint16 // input slot within the frame
}

func (c Continuation) String() string {
	return fmt.Sprintf("PE%d/f%d.%d", c.PE, c.Frame, c.Slot)
}

// Kind enumerates the packet types the EMC-Y send instructions generate.
type Kind uint8

const (
	// KindReadReq asks the destination PE for one word at Addr; the reply
	// resumes Cont. Serviced by the IBU by-passing DMA without EXU cycles.
	KindReadReq Kind = iota
	// KindBlockReadReq asks for Block consecutive words starting at Addr;
	// the destination streams Block reply packets back.
	KindBlockReadReq
	// KindReadReply carries one word of Data back to continuation Cont.
	KindReadReply
	// KindWrite stores Data at Addr on the destination PE; fire-and-forget,
	// the issuing thread does not suspend.
	KindWrite
	// KindInvoke spawns/enables a thread: Addr names the code entry, Data
	// carries an argument, Cont the caller's continuation.
	KindInvoke
	// KindSync is a synchronization token (barrier round arrival).
	KindSync
	// KindResume re-enables a locally suspended thread (explicit context
	// switch / spin requeue). It never crosses the network: the hardware
	// equivalent is the continuation re-entering the PE's own packet queue.
	KindResume
	nKinds
)

var kindNames = [nKinds]string{
	"read-req", "block-read-req", "read-reply", "write", "invoke", "sync",
	"resume",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Packet is one network message.
type Packet struct {
	Kind Kind
	Src  PE         // issuing PE (metadata; hardware derives it from Cont)
	Addr GlobalAddr // address word: target of the operation (Addr.PE routes)
	Data Word       // data word: value / argument
	Cont Continuation
	// Block is the word count for KindBlockReadReq.
	Block uint32
	// Seq is a simulation-side tag used by tracing and the non-overtaking
	// property test; the network never inspects it.
	Seq uint64
}

// Dst returns the PE the network must deliver this packet to.
func (p *Packet) Dst() PE {
	switch p.Kind {
	case KindReadReply, KindResume:
		return p.Cont.PE
	default:
		return p.Addr.PE
	}
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s src=%d dst=%d addr=%v data=%#x cont=%v",
		p.Kind, p.Src, p.Dst(), p.Addr, uint32(p.Data), p.Cont)
}

// Free is a free list of packets. A machine owns one and every unit
// that creates a packet takes it from the list; the unit that consumes
// the packet puts it back, so a run allocates only as many packets as
// are ever in flight at once. The zero value is an empty list.
type Free struct {
	pkts []*Packet
	// Allocated counts packets Get had to allocate because the list
	// was empty. After a run that drained, every one of them is back
	// on the list: Allocated == Len().
	Allocated uint64
}

// Get returns a zeroed packet, reusing a released one when it can.
func (f *Free) Get() *Packet {
	n := len(f.pkts)
	if n == 0 {
		f.Allocated++
		return new(Packet)
	}
	p := f.pkts[n-1]
	f.pkts[n-1] = nil
	f.pkts = f.pkts[:n-1]
	return p
}

// Put zeroes a consumed packet and returns it to the list. The caller
// must hold no other reference to it.
func (f *Free) Put(p *Packet) {
	*p = Packet{}
	f.pkts = append(f.pkts, p)
}

// Len returns the number of packets on the list.
func (f *Free) Len() int { return len(f.pkts) }
