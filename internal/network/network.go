// Package network models the EM-X interconnect: a circular Omega network
// built from the Switching Units of the PEs themselves. Every node is a
// 3x3 crossbar switch (two network input ports, two network output ports,
// one processor port) attached to one PE; links follow the perfect-shuffle
// permutation, and destination-tag routing delivers any packet in exactly
// log2(P) link hops.
//
// Timing follows the paper's description of the EMC-Y Switching Unit:
//
//   - virtual cut-through: the head of a packet moves one hop per cycle, so
//     a packet reaches a processor k hops away in k+1 cycles when unloaded;
//   - each port transfers one two-word packet every second cycle, so an
//     output port is occupied for 2 cycles per packet (throughput), while
//     the head is forwarded after 1 cycle (latency);
//   - ports are FIFO, which enforces the message non-overtaking rule.
package network

import (
	"fmt"
	"math/bits"

	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/sim"
)

// HopCycles is the per-hop head latency under virtual cut-through routing.
const HopCycles sim.Time = 1

// PortCycles is the output-port occupancy per two-word packet
// (one word per clock, every second cycle per the paper).
const PortCycles sim.Time = 2

// DeliverFunc receives a packet at its destination PE (the IBU input).
type DeliverFunc func(p *packet.Packet)

// Stats aggregates network-wide counters.
type Stats struct {
	Sent       uint64   // packets injected
	Delivered  uint64   // packets handed to destination PEs
	Hops       uint64   // total link hops traversed
	QueueDelay sim.Time // total cycles packets waited for busy ports
	LocalShort uint64   // self-addressed packets short-circuited OBU->IBU
}

// Network is the circular Omega interconnect for P processors. P may be
// any size >= 2: the switch fabric is built over the next power of two
// (the 80-PE prototype routes through a 128-node shuffle, with the excess
// nodes acting as pure switch stages), and packets originate and
// terminate only at the P real PEs.
type Network struct {
	eng   *sim.Engine
	p     int // attached processors
	nodes int // switch nodes: next power of two >= p
	l     int // log2(nodes): route length in hops
	mask  int

	// ports[v][b] is node v's network output port b (shuffle links).
	ports [][2]sim.Resource
	// eject[v] is node v's processor port toward its PE/IBU.
	eject   []sim.Resource
	deliver []DeliverFunc

	// Prepared handlers for the engine's allocation-free event lane.
	hHop     sim.Handler
	hArrive  sim.Handler
	hDeliver sim.Handler

	// obs, when non-nil, records per-hop latency and port-contention
	// stalls, attributed to the packet's destination PE.
	obs *obs.Tracer

	Stats Stats
}

// SetObs installs the observability tracer. A nil tracer (the default)
// disables recording.
func (n *Network) SetObs(t *obs.Tracer) { n.obs = t }

// hopH forwards a packet one switch hop. EventArg packs the packet in
// Ptr and (node, hopsLeft) in N.
type hopH struct{ n *Network }

func (h hopH) OnEvent(arg sim.EventArg) {
	h.n.hop(arg.Ptr.(*packet.Packet), int(arg.N>>32), int(arg.N&0xffffffff))
}

// arriveH moves a packet into its destination switch's processor port.
type arriveH struct{ n *Network }

func (h arriveH) OnEvent(arg sim.EventArg) { h.n.arriveDst(arg.Ptr.(*packet.Packet)) }

// deliverH hands a packet to the destination PE's IBU callback.
type deliverH struct{ n *Network }

func (h deliverH) OnEvent(arg sim.EventArg) {
	p := arg.Ptr.(*packet.Packet)
	h.n.Stats.Delivered++
	if fn := h.n.deliver[p.Dst()]; fn != nil {
		fn(p)
	}
}

// New builds the network for p PEs on the given engine.
func New(eng *sim.Engine, p int) (*Network, error) {
	if p < 2 {
		return nil, fmt.Errorf("network: need at least 2 PEs, got %d", p)
	}
	nodes := 1 << uint(bits.Len(uint(p-1)))
	n := &Network{
		eng:     eng,
		p:       p,
		nodes:   nodes,
		l:       bits.Len(uint(nodes)) - 1,
		mask:    nodes - 1,
		ports:   make([][2]sim.Resource, nodes),
		eject:   make([]sim.Resource, p),
		deliver: make([]DeliverFunc, p),
	}
	n.hHop = hopH{n}
	n.hArrive = arriveH{n}
	n.hDeliver = deliverH{n}
	return n, nil
}

// P returns the number of processors.
func (n *Network) P() int { return n.p }

// RouteHops returns the number of link hops between src and dst: 0 for a
// self-send (short-circuited inside the SU) and log2(P) otherwise, the
// fixed route length of destination-tag routing on the shuffle network.
func (n *Network) RouteHops(src, dst packet.PE) int {
	if src == dst {
		return 0
	}
	return n.l
}

// SetDeliver installs the destination callback (the PE's IBU) for a node.
func (n *Network) SetDeliver(pe packet.PE, fn DeliverFunc) {
	n.deliver[pe] = fn
}

// Send injects a packet at its source node at the current simulated
// time. The packet is eventually handed to the destination's
// DeliverFunc.
func (n *Network) Send(p *packet.Packet) {
	dst := p.Dst()
	if int(dst) >= n.p || dst < 0 {
		panic(fmt.Sprintf("network: packet to PE%d on a %d-PE machine", dst, n.p))
	}
	if int(p.Src) >= n.p || p.Src < 0 {
		panic(fmt.Sprintf("network: packet from PE%d on a %d-PE machine", p.Src, n.p))
	}
	n.Stats.Sent++
	if p.Src == dst {
		// The SU short-circuits self-addressed packets from the OBU to the
		// IBU through the crossbar processor port: one cycle, no links.
		n.Stats.LocalShort++
		n.eng.AfterHandler(0, n.hArrive, sim.EventArg{Ptr: p})
		return
	}
	n.hop(p, int(p.Src), n.l)
}

// hop forwards the packet from node v with hopsLeft route bits
// remaining.
//
//emx:hotpath
func (n *Network) hop(p *packet.Packet, v, hopsLeft int) {
	now := n.eng.Now()
	dst := int(p.Dst())
	bit := (dst >> (hopsLeft - 1)) & 1
	next := ((v << 1) | bit) & n.mask

	port := &n.ports[v][bit]
	start := now
	if f := port.FreeAt(); f > start {
		start = f
		n.Stats.QueueDelay += start - now
	}
	port.Acquire(start, PortCycles)
	n.Stats.Hops++
	n.obs.Hop(int64(now), int32(p.Dst()), obs.NetHop, int64(start-now))

	headAt := start + HopCycles
	if hopsLeft == 1 {
		// next == dst: the last route bit lands the packet on the
		// destination's own switch node.
		n.eng.AtHandler(headAt, n.hArrive, sim.EventArg{Ptr: p})
		return
	}
	n.eng.AtHandler(headAt, n.hHop, sim.EventArg{
		Ptr: p,
		N:   int64(next)<<32 | int64(hopsLeft-1),
	})
}

// arriveDst moves the packet through the destination switch's processor
// port into the PE.
//
//emx:hotpath
func (n *Network) arriveDst(p *packet.Packet) {
	dst := p.Dst()
	now := n.eng.Now()
	port := &n.eject[dst]
	start := now
	if f := port.FreeAt(); f > start {
		start = f
		n.Stats.QueueDelay += start - now
	}
	port.Acquire(start, PortCycles)
	n.obs.Hop(int64(now), int32(dst), obs.NetEject, int64(start-now))
	n.eng.AtHandler(start+HopCycles, n.hDeliver, sim.EventArg{Ptr: p})
}

// UnloadedLatency returns the cycles from injection to delivery on an idle
// network: k hops + 1 ejection cycle for remote sends, 1 for self-sends.
func (n *Network) UnloadedLatency(src, dst packet.PE) sim.Time {
	return sim.Time(n.RouteHops(src, dst))*HopCycles + HopCycles
}
