package network

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"emx/internal/packet"
	"emx/internal/sim"
)

// goldenTraffic pins the network's exact timing: every delivery's
// (cycle, destination, packet) and the final counts (Stats, with the
// deliveries and self-sends counted by the test), over seeded traffic
// injected through engine closures. Part of the traffic is a hot-spot
// burst that queues one eject port (and the shuffle ports feeding it)
// thousands of cycles deep, so steps scheduled far beyond the engine's
// near-future window are covered too. Regenerate only when a change
// intentionally alters simulated network behaviour.
var goldenTraffic = []struct {
	p    int
	seed int64
	sha  string
}{
	{2, 101, "bba58a7a3fef372cecf7e3e4c877b5133154b368759231cf81739f5a606fe5a7"},
	{3, 103, "24de0131502a51a96bd99c330aeb7277143d55637e276d2f8b5b881fdd843dd2"},
	{16, 116, "583f9675b030cf50505d3b434a1c96fe4ea77a23ba146f26d9e951f3715ff51c"},
	{64, 164, "5340992640f9f4a229ec3f3939314d0aab535c67fd6f95aac94d059481c7c938"},
	{80, 180, "cbd23ac8573bf289cd1f38e3196e601b69b61aee41f06d6c953a1708677851e0"},
}

// trafficDigest drives the seeded traffic for one machine size and
// returns the digest of its delivery list and counts, together with the
// deepest eject-port queue (in cycles) any delivery waited behind.
func trafficDigest(t *testing.T, p int, seed int64) (string, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	n, err := New(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	var deepest sim.Time
	var nextSeq, delivered, selfSends uint64
	send := func(src, dst packet.PE) *packet.Packet {
		nextSeq++
		if src == dst {
			selfSends++
		}
		return &packet.Packet{Kind: packet.KindWrite, Src: src,
			Addr: packet.GlobalAddr{PE: dst}, Seq: nextSeq}
	}
	for pe := 0; pe < p; pe++ {
		n.SetDeliver(packet.PE(pe), func(q *packet.Packet) {
			fmt.Fprintf(h, "%d %d %d\n", eng.Now(), q.Dst(), q.Seq)
			delivered++
			if d := n.eject[q.Dst()].FreeAt() - eng.Now(); d > deepest {
				deepest = d
			}
			// Every fifth packet is answered from inside the delivery, and
			// every seventh a few cycles later, so sends also start from
			// within a network step and from later engine events.
			switch {
			case q.Seq%5 == 0:
				n.Send(send(q.Dst(), q.Src))
			case q.Seq%7 == 0:
				r := send(q.Dst(), packet.PE(rng.Intn(p)))
				eng.After(sim.Time(rng.Intn(4)), func() { n.Send(r) })
			}
		})
	}
	// Uniform background traffic over the first 2000 cycles, self-sends
	// included.
	for i := 0; i < 40*p; i++ {
		pkt := send(packet.PE(rng.Intn(p)), packet.PE(rng.Intn(p)))
		eng.At(sim.Time(rng.Intn(2000)), func() { n.Send(pkt) })
	}
	// The hot spot: every PE sends a burst to one destination within a
	// few cycles, far more than its eject port drains at one packet per
	// PortCycles.
	hot := packet.PE(rng.Intn(p))
	burst := 3000 / p
	for src := 0; src < p; src++ {
		for i := 0; i < burst; i++ {
			pkt := send(packet.PE(src), hot)
			eng.At(500+sim.Time(rng.Intn(8)), func() { n.Send(pkt) })
		}
	}
	eng.Run()
	// The layout of the Stats struct these digests were first taken
	// over, when it also counted deliveries and self-sends.
	fmt.Fprintf(h, "{Sent:%d Delivered:%d Hops:%d QueueDelay:%d LocalShort:%d}\n",
		n.Stats.Sent, delivered, n.Stats.Hops, n.Stats.QueueDelay, selfSends)
	return hex.EncodeToString(h.Sum(nil)), deepest
}

func TestNetworkGoldenTraffic(t *testing.T) {
	for _, g := range goldenTraffic {
		got, deepest := trafficDigest(t, g.p, g.seed)
		if deepest <= 1024 {
			t.Errorf("P=%d: deepest eject queue %d cycles, want > 1024 (the burst no longer reaches far-future steps)", g.p, deepest)
		}
		if got != g.sha {
			t.Errorf("P=%d seed %d: digest %s, want %s", g.p, g.seed, got, g.sha)
		}
	}
}
