package network

import (
	"math/bits"
	"math/rand"
	"testing"

	"emx/internal/packet"
	"emx/internal/sim"
)

// The network's latency and bandwidth probes as properties over seeded
// random traffic on random machine sizes, non-powers of two included:
// the unloaded latency, the port rate, non-overtaking and conservation.

// randomP draws a machine size in [2, 100].
func randomP(rng *rand.Rand) int { return 2 + rng.Intn(99) }

func TestUnloadedRemoteLatencyProperty(t *testing.T) {
	// An unloaded remote packet arrives UnloadedLatency after it is
	// sent: RouteHops+1 cycles, except on a route through a self-looping
	// node, where each repeated use of the same port waits for the
	// packet's own occupancy, PortCycles-HopCycles more.
	rng := rand.New(rand.NewSource(31))
	plain := 0
	for trial := 0; trial < 300; trial++ {
		p := randomP(rng)
		src := packet.PE(rng.Intn(p))
		dst := packet.PE((int(src) + 1 + rng.Intn(p-1)) % p)
		eng, n, _ := build(t, p)
		var at sim.Time = -1
		n.SetDeliver(dst, func(*packet.Packet) { at = eng.Now() })
		sent := sim.Time(rng.Intn(1000))
		pkt := &packet.Packet{Kind: packet.KindWrite, Src: src, Addr: packet.GlobalAddr{PE: dst}}
		eng.At(sent, func() { n.Send(pkt) })
		eng.Run()
		repeats := n.selfLoopRepeats(src, dst)
		if repeats == 0 {
			plain++
		}
		if want := sent + n.UnloadedLatency(src, dst); at != want {
			t.Fatalf("P=%d PE%d->PE%d sent at %d: delivered at %d, want %d (UnloadedLatency later, %d self-loop repeats)",
				p, src, dst, sent, at, want, repeats)
		}
	}
	if plain < 200 {
		t.Fatalf("only %d of 300 routes avoid the self-loops", plain)
	}
	// PE48->PE3 at P=60 stays on node 0 for two hops: 6 hops, the
	// ejection cycle and one repeat.
	_, n, _ := build(t, 60)
	if got := n.UnloadedLatency(48, 3); got != 8 {
		t.Fatalf("P=60 UnloadedLatency(48, 3) = %d, want 8", got)
	}
}

func TestRandomTrafficProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		p := randomP(rng)
		eng, n, _ := build(t, p)

		// Non-overtaking: number each (src, dst) pair's packets in the
		// order they enter the network and require that order at the
		// destination.
		type pair struct{ src, dst packet.PE }
		entered := map[pair]uint64{}
		delivered := map[pair]uint64{}
		overtaken, arrived := 0, 0
		for pe := 0; pe < p; pe++ {
			n.SetDeliver(packet.PE(pe), func(q *packet.Packet) {
				k := pair{q.Src, q.Dst()}
				if q.Seq != delivered[k] {
					overtaken++
				}
				delivered[k]++
				arrived++
			})
		}
		remote := uint64(0)
		total := 20 * p
		for i := 0; i < total; i++ {
			k := pair{packet.PE(rng.Intn(p)), packet.PE(rng.Intn(p))}
			if k.src != k.dst {
				remote++
			}
			pkt := &packet.Packet{Kind: packet.KindWrite, Src: k.src, Addr: packet.GlobalAddr{PE: k.dst}}
			eng.At(sim.Time(rng.Intn(10*p)), func() {
				pkt.Seq = entered[k]
				entered[k]++
				n.Send(pkt)
			})
		}

		// Port rate: step the engine one item at a time and record every
		// grant, seen as a change of a port's FreeAt (a grant at start
		// moves it to start+PortCycles).
		ports := make([]*sim.Resource, 0, 2*n.nodes+p)
		for v := range n.ports {
			ports = append(ports, &n.ports[v][0], &n.ports[v][1])
		}
		for pe := range n.eject {
			ports = append(ports, &n.eject[pe])
		}
		freeAt := make([]sim.Time, len(ports))
		lastGrant := make([]sim.Time, len(ports))
		for i := range lastGrant {
			lastGrant[i] = -PortCycles
		}
		for eng.Step() {
			for i, r := range ports {
				f := r.FreeAt()
				if f == freeAt[i] {
					continue
				}
				grant := f - PortCycles
				if grant-lastGrant[i] < PortCycles {
					t.Fatalf("P=%d: port %d granted at %d and %d, less than %d cycles apart",
						p, i, lastGrant[i], grant, PortCycles)
				}
				freeAt[i], lastGrant[i] = f, grant
			}
		}

		if overtaken != 0 {
			t.Fatalf("P=%d: %d packets overtook an earlier packet of their pair", p, overtaken)
		}
		fabric := 1 << bits.Len(uint(p-1))
		if want := uint64(bits.TrailingZeros(uint(fabric))) * remote; n.Stats.Hops != want {
			t.Fatalf("P=%d: %d hops for %d remote packets, want log2(%d) x remote = %d",
				p, n.Stats.Hops, remote, fabric, want)
		}
		if n.Stats.Sent != uint64(total) || arrived != total {
			t.Fatalf("P=%d: sent=%d delivered=%d, want both %d", p, n.Stats.Sent, arrived, total)
		}
	}
}

// TestNetworkSteadyStateDoesNotAllocate: a send-to-deliver round trip,
// OBU hand-off included, allocates nothing once the step calendar's
// slab has reached its peak.
func TestNetworkSteadyStateDoesNotAllocate(t *testing.T) {
	const p = 64
	eng := sim.NewEngine()
	n, err := New(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	// Each delivered packet goes straight back to its sender.
	delivered := 0
	for pe := 0; pe < p; pe++ {
		n.SetDeliver(packet.PE(pe), func(q *packet.Packet) {
			delivered++
			q.Src, q.Addr.PE = q.Addr.PE, q.Src
			n.Inject(q, eng.Now()+2)
		})
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4*p; i++ {
		n.Inject(&packet.Packet{Kind: packet.KindWrite, Src: packet.PE(rng.Intn(p)),
			Addr: packet.GlobalAddr{PE: packet.PE(rng.Intn(p))}}, sim.Time(rng.Intn(64)))
	}
	deadline := sim.Time(1 << 15)
	eng.RunUntil(deadline)
	before := delivered
	allocs := testing.AllocsPerRun(20, func() {
		deadline += 1024
		eng.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Fatalf("steady-state traffic allocated %.1f per 1024-cycle window, want 0", allocs)
	}
	if delivered == before {
		t.Fatal("no packet was delivered while measuring")
	}
}
