// Package proc models the packet-side units of the EMC-Y processing
// element: the Input Buffer Unit (IBU), Output Buffer Unit (OBU), and the
// by-passing DMA path between them and the Memory Control Unit.
//
// The defining EM-X feature lives here: remote read and write requests
// arriving from the network are serviced by the IBU through the by-passing
// DMA and sent back out through the OBU *without consuming Execution Unit
// cycles*. The predecessor EM-4 instead ran a one-instruction servicing
// thread on the EXU for every request; that mode is kept as
// ServiceEXU for the ablation experiment.
package proc

import (
	"fmt"
	"strings"

	"emx/internal/memory"
	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/sim"
	"emx/internal/thread"
)

// ServiceMode selects how arriving remote-memory requests are serviced.
type ServiceMode uint8

const (
	// ServiceBypass is the EM-X by-passing DMA: IBU+OBU+MCU, zero EXU cycles.
	ServiceBypass ServiceMode = iota
	// ServiceEXU is the EM-4 behaviour: each request becomes a high-priority
	// one-instruction thread that steals EXU cycles.
	ServiceEXU
)

func (m ServiceMode) String() string {
	if m == ServiceBypass {
		return "bypass"
	}
	return "exu"
}

// ParseServiceMode parses a service mode name, case-insensitively: ""
// or "bypass" is the EM-X by-passing DMA, "exu", "em4" or "em-4" the
// EM-4's EXU servicing.
func ParseServiceMode(mode string) (ServiceMode, error) {
	switch strings.ToLower(mode) {
	case "", "bypass":
		return ServiceBypass, nil
	case "exu", "em4", "em-4":
		return ServiceEXU, nil
	}
	return 0, fmt.Errorf("unknown service mode %q (want bypass or exu)", mode)
}

// Config holds the packet-unit timing parameters (cycles).
type Config struct {
	// IBUServiceCycles is the IBU's fixed per-request handling time before
	// the DMA memory access starts.
	IBUServiceCycles sim.Time
	// OBUCycles is the output buffer occupancy per packet (one two-word
	// packet every second cycle).
	OBUCycles sim.Time
	// SpillCycles is the extra MCU cost to spill or restore one queue
	// packet to/from the on-memory buffer.
	SpillCycles sim.Time
	// Mode selects by-passing DMA or EM-4-style EXU servicing.
	Mode ServiceMode
	// ReplyPrio selects the IBU buffer level for read replies. The EM-X
	// default is plain FIFO (thread.Low, replies queue behind everything);
	// thread.High implements the "resume-first" scheduling policy the
	// paper's conclusion proposes to explore — replies overtake queued
	// and spinning threads (ablation X-sched).
	ReplyPrio thread.Prio
}

// DefaultConfig matches the EMC-Y description in the paper.
func DefaultConfig() Config {
	return Config{
		IBUServiceCycles: 2,
		OBUCycles:        2,
		SpillCycles:      4,
		Mode:             ServiceBypass,
		ReplyPrio:        thread.Low,
	}
}

// Proc is one PE's packet machinery. The Execution Unit itself lives in
// package core (it must resume workload coroutines); Proc exposes the
// queue the EXU dispatches from and the OBU it sends through.
type Proc struct {
	eng *sim.Engine
	pe  packet.PE
	cfg Config

	Mem   *memory.Local
	Queue thread.Queue

	ibu sim.Resource
	obu sim.Resource

	// out takes a packet from the OBU together with the time its OBU
	// slot completes.
	out  func(*packet.Packet, sim.Time)
	wake func()
	// free is the machine's packet free list: replies come from it, and
	// serviced writes and block-read requests go back to it.
	free *packet.Free

	// block is the buffer block reads are serviced through; its words
	// are copied into the replies before the next service.
	block []packet.Word

	// Prepared handlers for the engine's allocation-free event lane.
	hInject sim.Handler
	hDMA    sim.Handler

	// Stats points at the PE's metrics record (owned by the machine).
	Stats *metrics.PE

	// obs, when non-nil, records packet-service and spill events.
	obs *obs.Tracer
}

// SetObs installs the observability tracer. A nil tracer (the default)
// disables packet-event recording.
func (p *Proc) SetObs(t *obs.Tracer) { p.obs = t }

// injectH sends a prepared packet (typically a read reply) out through
// the OBU.
type injectH struct{ p *Proc }

func (h injectH) OnEvent(arg sim.EventArg) { h.p.Inject(arg.Ptr.(*packet.Packet)) }

// dmaH performs the memory side of a by-passing DMA request once the
// IBU grant time arrives.
type dmaH struct{ p *Proc }

func (h dmaH) OnEvent(arg sim.EventArg) { h.p.serviceDMA(arg.Ptr.(*packet.Packet)) }

// New creates the packet units for one PE. free is the machine's packet
// free list; out takes each packet leaving the OBU, with the time its
// OBU slot completes (network.Network.Inject).
func New(eng *sim.Engine, pe packet.PE, memWords int, cfg Config,
	stats *metrics.PE, free *packet.Free, out func(*packet.Packet, sim.Time)) *Proc {
	p := &Proc{
		eng:   eng,
		pe:    pe,
		cfg:   cfg,
		Mem:   memory.New(pe, memWords),
		out:   out,
		free:  free,
		Stats: stats,
	}
	p.hInject = injectH{p}
	p.hDMA = dmaH{p}
	return p
}

// PE returns the processor number.
func (p *Proc) PE() packet.PE { return p.pe }

// Config returns the unit timing configuration.
func (p *Proc) Config() Config { return p.cfg }

// SetWake installs the EXU's wake callback, invoked whenever a packet
// becomes available for dispatch.
func (p *Proc) SetWake(fn func()) { p.wake = fn }

// Inject sends an EXU- or IBU-generated packet out through the OBU. The
// OBU is a FIFO pipelined at one packet per OBUCycles; the packet enters
// the network when its OBU slot completes.
func (p *Proc) Inject(pkt *packet.Packet) {
	p.out(pkt, p.obu.Acquire(p.eng.Now(), p.cfg.OBUCycles))
}

// PushLocal enqueues a packet directly into the thread queue (used for
// local thread rescheduling and initial program load) and wakes the EXU.
func (p *Proc) PushLocal(prio thread.Prio, pkt *packet.Packet) {
	if p.Queue.Push(prio, pkt) {
		p.Stats.Spills++
		p.obs.Packet(int64(p.eng.Now()), int32(p.pe), obs.PktSpill, int64(p.cfg.SpillCycles))
	}
	if p.wake != nil {
		p.wake()
	}
}

// Deliver is the network's callback: a packet has arrived at this PE's
// IBU. Requests take the service path; replies, invocations and sync
// tokens are queued for the Matching Unit / EXU.
func (p *Proc) Deliver(pkt *packet.Packet) {
	switch pkt.Kind {
	case packet.KindReadReq, packet.KindBlockReadReq, packet.KindWrite:
		if p.cfg.Mode == ServiceBypass {
			p.serviceBypass(pkt)
		} else {
			// EM-4 mode: the request becomes a high-priority servicing
			// thread competing for the EXU.
			p.PushLocal(thread.High, pkt)
		}
	case packet.KindReadReply:
		p.PushLocal(p.cfg.ReplyPrio, pkt)
	case packet.KindInvoke, packet.KindSync:
		p.PushLocal(thread.Low, pkt)
	default:
		panic(fmt.Sprintf("proc: PE%d cannot deliver %v", p.pe, pkt))
	}
}

// serviceBypass handles a remote memory request entirely inside the
// IBU/OBU/MCU path. No EXU cycles are charged — this is the EM-X
// by-passing mechanism.
func (p *Proc) serviceBypass(pkt *packet.Packet) {
	now := p.eng.Now()
	grant := p.ibu.Acquire(now, p.cfg.IBUServiceCycles)
	p.Stats.ServicedDMA++
	p.obs.Packet(int64(now), int32(p.pe), obs.PktBypassDMA, int64(grant-now))
	p.eng.AtHandler(grant, p.hDMA, sim.EventArg{Ptr: pkt})
}

// serviceDMA runs at the IBU grant time: the memory side of a by-passed
// request. A write or block-read request is consumed here; a single-word
// read request becomes its own reply.
func (p *Proc) serviceDMA(pkt *packet.Packet) {
	switch pkt.Kind {
	case packet.KindWrite:
		p.Mem.Write(p.eng.Now(), memory.PortDMA, pkt.Addr.Off, pkt.Data)
		p.free.Put(pkt)
	case packet.KindReadReq:
		v, done := p.Mem.Read(p.eng.Now(), memory.PortDMA, pkt.Addr.Off)
		p.eng.AtHandler(done, p.hInject, sim.EventArg{Ptr: p.toReply(pkt, v)})
	case packet.KindBlockReadReq:
		words, _ := p.Mem.ReadBlock(p.eng.Now(), memory.PortDMA, pkt.Addr.Off, int(pkt.Block), p.block)
		p.block = words
		// Stream one reply per word; the OBU pipelines them at its
		// port rate, which models the block-transfer burst.
		for i, w := range words {
			rd := p.eng.Now() + memory.AccessCycles*sim.Time(i+1)
			p.eng.AtHandler(rd, p.hInject, sim.EventArg{Ptr: p.blockReply(pkt, i, w)})
		}
		p.free.Put(pkt)
	}
}

// toReply turns a single-word read request into its reply in place: the
// continuation and the trace tag stay, the kind, source and data change.
func (p *Proc) toReply(pkt *packet.Packet, v packet.Word) *packet.Packet {
	pkt.Kind = packet.KindReadReply
	pkt.Src = p.pe
	pkt.Data = v
	return pkt
}

// blockReply builds the reply carrying word i of a block read request.
func (p *Proc) blockReply(req *packet.Packet, i int, w packet.Word) *packet.Packet {
	reply := p.free.Get()
	*reply = packet.Packet{
		Kind: packet.KindReadReply,
		Src:  p.pe,
		Addr: req.Addr.Add(uint32(i)),
		Data: w,
		Cont: req.Cont,
		Seq:  req.Seq,
	}
	return reply
}

// ServiceOnEXU performs the memory side of a request that was queued in
// ServiceEXU mode; the core EXU calls it after charging the stolen cycles.
// It consumes the request the way serviceDMA does.
func (p *Proc) ServiceOnEXU(pkt *packet.Packet) {
	p.Stats.ServicedEXU++
	p.obs.Packet(int64(p.eng.Now()), int32(p.pe), obs.PktEXUService, 0)
	switch pkt.Kind {
	case packet.KindWrite:
		p.Mem.Write(p.eng.Now(), memory.PortEXU, pkt.Addr.Off, pkt.Data)
		p.free.Put(pkt)
	case packet.KindReadReq:
		v, done := p.Mem.Read(p.eng.Now(), memory.PortEXU, pkt.Addr.Off)
		p.eng.AtHandler(done, p.hInject, sim.EventArg{Ptr: p.toReply(pkt, v)})
	case packet.KindBlockReadReq:
		words, done := p.Mem.ReadBlock(p.eng.Now(), memory.PortEXU, pkt.Addr.Off, int(pkt.Block), p.block)
		p.block = words
		for i, w := range words {
			p.eng.AtHandler(done, p.hInject, sim.EventArg{Ptr: p.blockReply(pkt, i, w)})
		}
		p.free.Put(pkt)
	default:
		panic(fmt.Sprintf("proc: ServiceOnEXU got %v", pkt))
	}
}

// OBUBusy reports the OBU's accumulated occupancy.
func (p *Proc) OBUBusy() sim.Time { return p.obu.Busy }

// IBUBusy reports the IBU's accumulated occupancy.
func (p *Proc) IBUBusy() sim.Time { return p.ibu.Busy }
