package proc

import (
	"testing"

	"emx/internal/memory"
	"emx/internal/metrics"
	"emx/internal/packet"
	"emx/internal/sim"
	"emx/internal/thread"
)

type capture struct {
	at   []sim.Time
	pkts []*packet.Packet
}

func newProc(t *testing.T, mode ServiceMode) (*sim.Engine, *Proc, *capture, *metrics.PE) {
	t.Helper()
	eng := sim.NewEngine()
	cap := &capture{}
	stats := &metrics.PE{}
	cfg := DefaultConfig()
	cfg.Mode = mode
	var p *Proc
	p = New(eng, 3, 1<<12, cfg, stats, new(packet.Free), func(pkt *packet.Packet, at sim.Time) {
		cap.at = append(cap.at, at)
		cap.pkts = append(cap.pkts, pkt)
	})
	return eng, p, cap, stats
}

func TestBypassReadService(t *testing.T) {
	eng, p, cap, stats := newProc(t, ServiceBypass)
	p.Mem.Poke(100, 0xabcd)
	req := &packet.Packet{
		Kind: packet.KindReadReq,
		Src:  1,
		Addr: packet.GlobalAddr{PE: 3, Off: 100},
		Cont: packet.Continuation{PE: 1, Frame: 7, Slot: 2},
	}
	eng.At(10, func() { p.Deliver(req) })
	eng.Run()
	if len(cap.pkts) != 1 {
		t.Fatalf("injected %d packets, want 1 reply", len(cap.pkts))
	}
	// The request becomes its own reply: same packet, same continuation.
	rep := cap.pkts[0]
	if rep != req || rep.Kind != packet.KindReadReply || rep.Src != 3 || rep.Data != 0xabcd ||
		rep.Cont != (packet.Continuation{PE: 1, Frame: 7, Slot: 2}) {
		t.Fatalf("bad reply: %v", rep)
	}
	// Timing: IBU 2 + memory 2 + OBU 2 after arrival at t=10.
	want := sim.Time(10) + p.cfg.IBUServiceCycles + memory.AccessCycles + p.cfg.OBUCycles
	if cap.at[0] != want {
		t.Fatalf("reply injected at %d, want %d", cap.at[0], want)
	}
	if stats.ServicedDMA != 1 || stats.ServicedEXU != 0 {
		t.Fatalf("service counters: dma=%d exu=%d", stats.ServicedDMA, stats.ServicedEXU)
	}
	// By-passing property: nothing was queued for the EXU.
	if !p.Queue.Empty() {
		t.Fatal("bypass service touched the thread queue")
	}
}

func TestBypassWriteService(t *testing.T) {
	eng, p, cap, _ := newProc(t, ServiceBypass)
	w := &packet.Packet{
		Kind: packet.KindWrite, Src: 0,
		Addr: packet.GlobalAddr{PE: 3, Off: 55}, Data: 42,
	}
	eng.At(0, func() { p.Deliver(w) })
	eng.Run()
	if p.Mem.Peek(55) != 42 {
		t.Fatalf("remote write not applied: %d", p.Mem.Peek(55))
	}
	if len(cap.pkts) != 0 {
		t.Fatal("write generated a reply")
	}
}

func TestBypassBlockReadStreamsReplies(t *testing.T) {
	eng, p, cap, _ := newProc(t, ServiceBypass)
	for i := uint32(0); i < 4; i++ {
		p.Mem.Poke(200+i, packet.Word(i+1))
	}
	req := &packet.Packet{
		Kind: packet.KindBlockReadReq, Src: 1,
		Addr: packet.GlobalAddr{PE: 3, Off: 200}, Block: 4,
		Cont: packet.Continuation{PE: 1, Frame: 9},
	}
	eng.At(0, func() { p.Deliver(req) })
	eng.Run()
	if len(cap.pkts) != 4 {
		t.Fatalf("injected %d replies, want 4", len(cap.pkts))
	}
	for i, rep := range cap.pkts {
		if rep.Data != packet.Word(i+1) || rep.Addr.Off != uint32(200+i) ||
			rep.Cont != (packet.Continuation{PE: 1, Frame: 9}) {
			t.Fatalf("reply %d = %v", i, rep)
		}
	}
	// Replies must be spaced by at least the OBU port rate.
	for i := 1; i < len(cap.at); i++ {
		if cap.at[i]-cap.at[i-1] < p.cfg.OBUCycles {
			t.Fatalf("replies %d,%d spaced %d < OBU rate", i-1, i, cap.at[i]-cap.at[i-1])
		}
	}
}

func TestEXUModeQueuesRequests(t *testing.T) {
	eng, p, cap, _ := newProc(t, ServiceEXU)
	woken := 0
	p.SetWake(func() { woken++ })
	req := &packet.Packet{
		Kind: packet.KindReadReq, Src: 1,
		Addr: packet.GlobalAddr{PE: 3, Off: 1}, Cont: packet.Continuation{PE: 1},
	}
	eng.At(0, func() { p.Deliver(req) })
	eng.Run()
	if len(cap.pkts) != 0 {
		t.Fatal("EXU mode serviced without the EXU")
	}
	if woken != 1 {
		t.Fatalf("wake called %d times, want 1", woken)
	}
	got, prio, _, ok := p.Queue.Pop()
	if !ok || got != req || prio != thread.High {
		t.Fatalf("queued: pkt=%v prio=%d ok=%v", got, prio, ok)
	}
}

func TestServiceOnEXU(t *testing.T) {
	eng, p, cap, stats := newProc(t, ServiceEXU)
	p.Mem.Poke(5, 99)
	req := &packet.Packet{
		Kind: packet.KindReadReq, Src: 1,
		Addr: packet.GlobalAddr{PE: 3, Off: 5}, Cont: packet.Continuation{PE: 1},
	}
	eng.At(0, func() { p.ServiceOnEXU(req) })
	eng.Run()
	if len(cap.pkts) != 1 || cap.pkts[0].Data != 99 {
		t.Fatalf("EXU service reply: %v", cap.pkts)
	}
	if stats.ServicedEXU != 1 {
		t.Fatalf("ServicedEXU = %d", stats.ServicedEXU)
	}
}

func TestDeliverRepliesAndInvokesQueueLow(t *testing.T) {
	eng, p, _, _ := newProc(t, ServiceBypass)
	wakes := 0
	p.SetWake(func() { wakes++ })
	eng.At(0, func() {
		p.Deliver(&packet.Packet{Kind: packet.KindReadReply, Src: 0, Cont: packet.Continuation{PE: 3}})
		p.Deliver(&packet.Packet{Kind: packet.KindInvoke, Src: 0, Addr: packet.GlobalAddr{PE: 3}})
		p.Deliver(&packet.Packet{Kind: packet.KindSync, Src: 0, Addr: packet.GlobalAddr{PE: 3}})
	})
	eng.Run()
	if p.Queue.Len() != 3 || wakes != 3 {
		t.Fatalf("queued=%d wakes=%d, want 3,3", p.Queue.Len(), wakes)
	}
}

func TestPushLocalSpillCounted(t *testing.T) {
	eng, p, _, stats := newProc(t, ServiceBypass)
	_ = eng
	for i := 0; i < thread.OnChipCap+3; i++ {
		p.PushLocal(thread.Low, &packet.Packet{Kind: packet.KindResume, Cont: packet.Continuation{PE: 3}})
	}
	if stats.Spills != 3 {
		t.Fatalf("spills = %d, want 3", stats.Spills)
	}
}

func TestOBUSerializesInjections(t *testing.T) {
	eng, p, cap, _ := newProc(t, ServiceBypass)
	eng.At(0, func() {
		for i := 0; i < 3; i++ {
			p.Inject(&packet.Packet{Kind: packet.KindWrite, Src: 3, Addr: packet.GlobalAddr{PE: 0}})
		}
	})
	eng.Run()
	if len(cap.at) != 3 {
		t.Fatalf("injected %d", len(cap.at))
	}
	for i, at := range cap.at {
		want := sim.Time(i+1) * p.cfg.OBUCycles
		if at != want {
			t.Fatalf("injection %d at %d, want %d", i, at, want)
		}
	}
	if p.OBUBusy() != 3*p.cfg.OBUCycles {
		t.Fatalf("OBU busy = %d", p.OBUBusy())
	}
}

func TestIBUSerializesService(t *testing.T) {
	eng, p, cap, _ := newProc(t, ServiceBypass)
	// Two reads arriving the same cycle must be serviced back to back.
	for i := 0; i < 2; i++ {
		req := &packet.Packet{
			Kind: packet.KindReadReq, Src: 1,
			Addr: packet.GlobalAddr{PE: 3, Off: uint32(i)},
			Cont: packet.Continuation{PE: 1, Slot: uint16(i)},
		}
		eng.At(5, func() { p.Deliver(req) })
	}
	eng.Run()
	if len(cap.at) != 2 {
		t.Fatalf("replies = %d", len(cap.at))
	}
	if cap.at[1] <= cap.at[0] {
		t.Fatalf("IBU did not serialize: %v", cap.at)
	}
	if p.IBUBusy() != 2*p.cfg.IBUServiceCycles {
		t.Fatalf("IBU busy = %d", p.IBUBusy())
	}
}

func TestServiceModeString(t *testing.T) {
	if ServiceBypass.String() != "bypass" || ServiceEXU.String() != "exu" {
		t.Fatal("bad mode strings")
	}
}

func TestDeliverUnknownKindPanics(t *testing.T) {
	eng, p, _, _ := newProc(t, ServiceBypass)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	p.Deliver(&packet.Packet{Kind: packet.Kind(200)})
}

func TestReplyPriorityConfig(t *testing.T) {
	eng := sim.NewEngine()
	stats := &metrics.PE{}
	cfg := DefaultConfig()
	cfg.ReplyPrio = thread.High
	p := New(eng, 1, 1<<10, cfg, stats, new(packet.Free), func(*packet.Packet, sim.Time) {})
	// A resume packet (Low) then a reply (High): the reply must pop first.
	p.PushLocal(thread.Low, &packet.Packet{Kind: packet.KindResume, Cont: packet.Continuation{PE: 1}})
	p.Deliver(&packet.Packet{Kind: packet.KindReadReply, Src: 0, Cont: packet.Continuation{PE: 1}})
	got, prio, _, ok := p.Queue.Pop()
	if !ok || got.Kind != packet.KindReadReply || prio != thread.High {
		t.Fatalf("resume-first: popped %v at prio %d", got, prio)
	}
}

// TestParseServiceMode: every front end (emxd, emxprof, emxsim) accepts
// these names, and only these.
func TestParseServiceMode(t *testing.T) {
	for in, want := range map[string]ServiceMode{
		"": ServiceBypass, "bypass": ServiceBypass, "BYPASS": ServiceBypass,
		"exu": ServiceEXU, "em4": ServiceEXU, "EM-4": ServiceEXU,
	} {
		if got, err := ParseServiceMode(in); err != nil || got != want {
			t.Errorf("ParseServiceMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"warp", "em-x", " exu"} {
		if _, err := ParseServiceMode(in); err == nil {
			t.Errorf("ParseServiceMode(%q) accepted", in)
		}
	}
}
