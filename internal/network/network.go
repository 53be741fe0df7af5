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
//     a packet reaches a processor k hops away in k+1 cycles when unloaded,
//     except on a route that stays on a self-looping switch node (node 0
//     or the last one): each repeated use of the port its own packet has
//     just taken waits PortCycles-HopCycles more (see UnloadedLatency);
//   - each port transfers one two-word packet every second cycle, so an
//     output port is occupied for 2 cycles per packet (throughput), while
//     the head is forwarded after 1 cycle (latency);
//   - ports are FIFO, which enforces the message non-overtaking rule.
package network

import (
	"fmt"
	"math"
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
	Hops       uint64   // total link hops traversed
	QueueDelay sim.Time // total cycles packets waited for busy ports
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

	// cal holds every pending network step, attached to the engine so
	// the steps dispatch in the engine's (time, sequence) order.
	cal sim.Calendar[step]

	// obs, when non-nil, records per-hop latency and port-contention
	// stalls, attributed to the packet's destination PE.
	obs *obs.Tracer

	Stats Stats
}

// SetObs installs the observability tracer. A nil tracer (the default)
// disables recording.
func (n *Network) SetObs(t *obs.Tracer) { n.obs = t }

// step is one pending network action on a packet: leaving its source's
// OBU, a switch hop, entering the destination's processor port, or
// reaching the PE. Every step but the first carries the packet's
// destination, so a step never reads the packet to route it. A hop
// carries the switch node the head is at and the route bits left (at
// least 1); the other steps carry one of the codes below in left.
type step struct {
	p    *packet.Packet
	v    int32
	dst  int16
	left int16
}

const (
	stepArrive  = 0  // into the destination switch's processor port
	stepLeave   = -1 // out of the source OBU into the network
	stepDeliver = -2 // to the destination PE's IBU
)

// lane runs the network's steps for the engine.
type lane struct{ n *Network }

func (l lane) Fire() {
	n := l.n
	for {
		s := n.cal.Pop()
		switch {
		case s.left > 0:
			n.hop(s)
		case s.left == stepArrive:
			n.arriveDst(s)
		case s.left == stepLeave:
			n.Send(s.p)
		default:
			if fn := n.deliver[s.dst]; fn != nil {
				fn(s.p)
			}
		}
		if !n.eng.LaneNext() {
			return
		}
	}
}

// New builds the network for p PEs on the given engine, attaching its
// step calendar to it. The switch fabric's node numbers must fit a
// step's int16 destination.
func New(eng *sim.Engine, p int) (*Network, error) {
	if p < 2 {
		return nil, fmt.Errorf("network: need at least 2 PEs, got %d", p)
	}
	nodes := 1 << uint(bits.Len(uint(p-1)))
	if nodes-1 > math.MaxInt16 {
		return nil, fmt.Errorf("network: %d PEs need a %d-node fabric, more than %d", p, nodes, math.MaxInt16+1)
	}
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
	sim.Attach(eng, &n.cal, lane{n})
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

// Inject hands the network a packet whose slot in its source's OBU
// completes at time at: the packet enters the network then.
func (n *Network) Inject(p *packet.Packet, at sim.Time) {
	n.cal.At(at, step{p: p, left: stepLeave})
}

// Send injects a packet at its source node at the current simulated
// time, taking its first hop at once. The packet is eventually handed
// to the destination's DeliverFunc.
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
		n.cal.At(n.eng.Now(), step{p: p, dst: int16(dst), left: stepArrive})
		return
	}
	n.hop(step{p: p, v: int32(p.Src), dst: int16(dst), left: int16(n.l)})
}

// hop forwards the packet of hop step s from its node s.v, with s.left
// route bits remaining.
func (n *Network) hop(s step) {
	now := n.eng.Now()
	v, dst, hopsLeft := int(s.v), int(s.dst), int(s.left)
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
	n.obs.Hop(int64(now), int32(dst), obs.NetHop, int64(start-now))

	headAt := start + HopCycles
	if hopsLeft == 1 {
		// next == dst: the last route bit lands the packet on the
		// destination's own switch node.
		n.cal.At(headAt, step{p: s.p, dst: s.dst, left: stepArrive})
		return
	}
	n.cal.At(headAt, step{p: s.p, v: int32(next), dst: s.dst, left: s.left - 1})
}

// arriveDst moves the packet of arrival step s through the destination
// switch's processor port into the PE.
func (n *Network) arriveDst(s step) {
	dst := s.dst
	now := n.eng.Now()
	port := &n.eject[dst]
	start := now
	if f := port.FreeAt(); f > start {
		start = f
		n.Stats.QueueDelay += start - now
	}
	port.Acquire(start, PortCycles)
	n.obs.Hop(int64(now), int32(dst), obs.NetEject, int64(start-now))
	n.cal.At(start+HopCycles, step{p: s.p, dst: dst, left: stepDeliver})
}

// UnloadedLatency returns the cycles from injection to delivery on an idle
// network: k hops + 1 ejection cycle for remote sends, plus
// PortCycles-HopCycles for each self-loop repeat on the route; 1 for
// self-sends.
func (n *Network) UnloadedLatency(src, dst packet.PE) sim.Time {
	repeats := 0
	if src != dst {
		repeats = n.selfLoopRepeats(src, dst)
	}
	return sim.Time(n.RouteHops(src, dst))*HopCycles + HopCycles +
		sim.Time(repeats)*(PortCycles-HopCycles)
}

// selfLoopRepeats counts the hops of the route from src to dst that use
// the same output port as the hop before: on the shuffle fabric only
// nodes 0 and nodes-1 link to themselves, so a route that stays on one
// of them for two hops asks again for the port its own head has just
// taken.
func (n *Network) selfLoopRepeats(src, dst packet.PE) int {
	repeats, v, prev := 0, int(src), -1
	for left := n.l; left > 0; left-- {
		bit := (int(dst) >> (left - 1)) & 1
		if port := v<<1 | bit; port == prev {
			repeats++
		} else {
			prev = port
		}
		v = (v<<1 | bit) & n.mask
	}
	return repeats
}
