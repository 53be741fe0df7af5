package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emx/internal/packet"
	"emx/internal/sim"
)

func build(t testing.TB, p int) (*sim.Engine, *Network, [][]*packet.Packet) {
	t.Helper()
	eng := sim.NewEngine()
	n, err := New(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]*packet.Packet, p)
	for pe := 0; pe < p; pe++ {
		pe := pe
		n.SetDeliver(packet.PE(pe), func(pkt *packet.Packet) {
			got[pe] = append(got[pe], pkt)
		})
	}
	return eng, n, got
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	for _, p := range []int{0, 1, -4} {
		if _, err := New(eng, p); err == nil {
			t.Errorf("New(%d) accepted", p)
		}
	}
	for _, p := range []int{2, 3, 16, 64, 80, 128} {
		if _, err := New(eng, p); err != nil {
			t.Errorf("New(%d): %v", p, err)
		}
	}
}

func TestUnloadedLatencyMatchesPaper(t *testing.T) {
	// "A packet can be transferred in k+1 cycles to the processor k hops
	// beyond": with log2(P) hops per route, delivery takes log2(P)+1.
	for _, p := range []int{16, 64} {
		eng, n, got := build(t, p)
		pkt := &packet.Packet{Kind: packet.KindWrite, Src: 0,
			Addr: packet.GlobalAddr{PE: packet.PE(p - 1), Off: 0}}
		var deliveredAt sim.Time = -1
		n.SetDeliver(packet.PE(p-1), func(q *packet.Packet) { deliveredAt = eng.Now() })
		eng.At(0, func() { n.Send(pkt) })
		eng.Run()
		want := n.UnloadedLatency(0, packet.PE(p-1))
		if deliveredAt != want {
			t.Errorf("P=%d: delivered at %d, want %d", p, deliveredAt, want)
		}
		if wantHops := sim.Time(n.l) + 1; want != wantHops {
			t.Errorf("P=%d: unloaded latency %d, want log2(P)+1 = %d", p, want, wantHops)
		}
		_ = got
	}
}

func TestSelfSendShortCircuit(t *testing.T) {
	eng, n, got := build(t, 16)
	pkt := &packet.Packet{Kind: packet.KindWrite, Src: 5, Addr: packet.GlobalAddr{PE: 5}}
	eng.At(10, func() { n.Send(pkt) })
	eng.Run()
	if len(got[5]) != 1 {
		t.Fatalf("self packet not delivered")
	}
	if eng.Now() != 10+1 {
		t.Fatalf("self-send delivered at %d, want 11", eng.Now())
	}
	if n.Stats.Hops != 0 || n.Stats.LocalShort != 1 {
		t.Fatalf("self-send took %d link hops", n.Stats.Hops)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	// Every (src, dst) pair must deliver to exactly the addressed PE.
	for _, p := range []int{4, 16, 32} {
		eng, n, got := build(t, p)
		want := make([]int, p)
		for s := 0; s < p; s++ {
			for d := 0; d < p; d++ {
				pkt := &packet.Packet{
					Kind: packet.KindWrite,
					Src:  packet.PE(s),
					Addr: packet.GlobalAddr{PE: packet.PE(d), Off: uint32(s)},
				}
				eng.At(sim.Time(s*p+d)*10, func() { n.Send(pkt) })
				want[d]++
			}
		}
		eng.Run()
		for d := 0; d < p; d++ {
			if len(got[d]) != want[d] {
				t.Fatalf("P=%d: PE%d received %d packets, want %d", p, d, len(got[d]), want[d])
			}
			for _, pkt := range got[d] {
				if pkt.Dst() != packet.PE(d) {
					t.Fatalf("P=%d: PE%d received packet for %d", p, d, pkt.Dst())
				}
			}
		}
		if n.Stats.Sent != uint64(p*p) || n.Stats.Delivered != uint64(p*p) {
			t.Fatalf("P=%d: sent=%d delivered=%d, want %d", p, n.Stats.Sent, n.Stats.Delivered, p*p)
		}
	}
}

func TestReadReplyRoutesToContinuation(t *testing.T) {
	eng, n, got := build(t, 8)
	pkt := &packet.Packet{
		Kind: packet.KindReadReply,
		Src:  3,
		Addr: packet.GlobalAddr{PE: 3, Off: 9}, // the address that was read
		Cont: packet.Continuation{PE: 6, Frame: 1, Slot: 0},
	}
	eng.At(0, func() { n.Send(pkt) })
	eng.Run()
	if len(got[6]) != 1 || len(got[3]) != 0 {
		t.Fatalf("reply delivered to wrong node: got3=%d got6=%d", len(got[3]), len(got[6]))
	}
}

func TestPortContentionDelaysSecondPacket(t *testing.T) {
	// Two packets injected at the same cycle from the same source to the
	// same destination share every port on the path: the second must
	// arrive exactly PortCycles later than the first.
	eng, n, _ := build(t, 16)
	var times []sim.Time
	n.SetDeliver(7, func(q *packet.Packet) { times = append(times, eng.Now()) })
	for i := 0; i < 2; i++ {
		pkt := &packet.Packet{Kind: packet.KindWrite, Src: 0, Addr: packet.GlobalAddr{PE: 7}}
		eng.At(0, func() { n.Send(pkt) })
	}
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(times))
	}
	if times[1]-times[0] != PortCycles {
		t.Fatalf("spacing = %d, want %d (port bandwidth)", times[1]-times[0], PortCycles)
	}
	if n.Stats.QueueDelay == 0 {
		t.Fatal("contention produced no queueing delay")
	}
}

func TestNonOvertaking(t *testing.T) {
	// Property: packets between the same (src, dst) pair are delivered in
	// injection order, for arbitrary background traffic.
	check := func(seed int64) bool {
		eng, n, _ := build(t, 16)
		rng := rand.New(rand.NewSource(seed))
		var order []uint64
		n.SetDeliver(13, func(q *packet.Packet) {
			if q.Src == 2 && q.Seq < 1000 {
				order = append(order, q.Seq)
			}
		})
		// Stream under test: PE2 -> PE13.
		for i := 0; i < 50; i++ {
			pkt := &packet.Packet{Kind: packet.KindWrite, Src: 2,
				Addr: packet.GlobalAddr{PE: 13}, Seq: uint64(i)}
			eng.At(sim.Time(i), func() { n.Send(pkt) })
		}
		// Background noise from random sources to random destinations.
		for i := 0; i < 300; i++ {
			src := packet.PE(rng.Intn(16))
			dst := packet.PE(rng.Intn(16))
			pkt := &packet.Packet{Kind: packet.KindWrite, Src: src,
				Addr: packet.GlobalAddr{PE: dst}, Seq: 1000 + uint64(i)}
			eng.At(sim.Time(rng.Intn(60)), func() { n.Send(pkt) })
		}
		eng.Run()
		if len(order) != 50 {
			return false
		}
		for i, seq := range order {
			if seq != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketConservationProperty(t *testing.T) {
	// Property: every injected packet is delivered exactly once.
	check := func(seed int64, burst uint8) bool {
		p := 32
		eng, n, got := build(t, p)
		rng := rand.New(rand.NewSource(seed))
		total := 50 + int(burst)
		for i := 0; i < total; i++ {
			pkt := &packet.Packet{Kind: packet.KindWrite,
				Src:  packet.PE(rng.Intn(p)),
				Addr: packet.GlobalAddr{PE: packet.PE(rng.Intn(p))}}
			eng.At(sim.Time(rng.Intn(100)), func() { n.Send(pkt) })
		}
		eng.Run()
		sum := 0
		for _, g := range got {
			sum += len(g)
		}
		return sum == total && n.Stats.Delivered == uint64(total)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteHops(t *testing.T) {
	eng := sim.NewEngine()
	n, _ := New(eng, 64)
	if n.RouteHops(3, 3) != 0 {
		t.Error("self route should be 0 hops")
	}
	if n.RouteHops(0, 1) != 6 || n.RouteHops(63, 0) != 6 {
		t.Error("remote routes on P=64 should be 6 hops")
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	n, _ := New(eng, 8)
	for _, pkt := range []*packet.Packet{
		{Kind: packet.KindWrite, Src: 0, Addr: packet.GlobalAddr{PE: 8}},
		{Kind: packet.KindWrite, Src: 9, Addr: packet.GlobalAddr{PE: 1}},
		{Kind: packet.KindWrite, Src: -1, Addr: packet.GlobalAddr{PE: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%v) did not panic", pkt)
				}
			}()
			n.Send(pkt)
		}()
	}
}

func BenchmarkNetworkRandomTraffic(b *testing.B) {
	eng := sim.NewEngine()
	n, _ := New(eng, 64)
	for pe := 0; pe < 64; pe++ {
		n.SetDeliver(packet.PE(pe), func(*packet.Packet) {})
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &packet.Packet{Kind: packet.KindWrite,
			Src:  packet.PE(rng.Intn(64)),
			Addr: packet.GlobalAddr{PE: packet.PE(rng.Intn(64))}}
		eng.After(sim.Time(rng.Intn(4)), func() { n.Send(pkt) })
		if eng.Pending() > 4096 {
			eng.RunUntil(eng.Now() + 64)
		}
	}
	eng.Run()
}

func TestPrototype80PEDelivery(t *testing.T) {
	// The real EM-X has 80 PEs: routing goes through a 128-node shuffle
	// fabric. Every (src, dst) pair must still deliver exactly once.
	eng, n, got := build(t, 80)
	total := 0
	for s := 0; s < 80; s += 7 {
		for d := 0; d < 80; d += 3 {
			pkt := &packet.Packet{Kind: packet.KindWrite,
				Src: packet.PE(s), Addr: packet.GlobalAddr{PE: packet.PE(d)}}
			eng.At(sim.Time(total%50), func() { n.Send(pkt) })
			total++
		}
	}
	eng.Run()
	sum := 0
	for _, g := range got {
		sum += len(g)
	}
	if sum != total {
		t.Fatalf("delivered %d of %d", sum, total)
	}
	if n.RouteHops(0, 79) != 7 { // log2(128)
		t.Fatalf("80-PE route hops = %d, want 7", n.RouteHops(0, 79))
	}
}
