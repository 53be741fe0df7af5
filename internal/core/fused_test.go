package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/proc"
	"emx/internal/sim"
	"emx/internal/thread"
)

// The fused operations (ComputeRead, ComputeReadBlock, ComputeReadPair)
// and the barrier's engine-side rounds replace operation sequences
// that each resumed the coroutine between steps. The references below
// are those coroutine-side sequences; the property test runs each
// against its fused form and requires identical runs.

// refBarrier is TC.Barrier with the dissemination rounds run by the
// coroutine: one token send and one counter wait per round.
func refBarrier(tc *TC, b *Barrier) {
	pe := tc.t.pe
	l := &b.local[pe]
	myEp := l.episodes
	l.arrived++
	if l.arrived < b.expect {
		tc.waitCount(metrics.SwitchIterSync, b.waits[pe], &l.episodes, myEp+1)
		return
	}
	l.arrived = 0
	for r := range l.recv {
		refSendSync(tc, b, b.partner(pe, r), r)
		tc.waitCount(metrics.SwitchIterSync, b.waits[pe], &l.recv[r], myEp+1)
	}
	l.episodes++
	b.waits[pe].Notify()
	tc.t.m.stats[pe].SyncsSent += uint64(len(l.recv))
}

// refSendSync emits one barrier round token from the coroutine.
func refSendSync(tc *TC, b *Barrier, partner packet.PE, round int) {
	tc.t.opAddr = packet.GlobalAddr{PE: partner, Off: b.id}
	tc.t.opData = packet.Word(round)
	tc.t.yieldOp(opWriteSync)
}

// form is one way of writing the operations under test.
type form struct {
	read    func(tc *TC, c sim.Time, a packet.GlobalAddr) packet.Word
	block   func(tc *TC, c sim.Time, a packet.GlobalAddr, n int) []packet.Word
	pair    func(tc *TC, c sim.Time, a, b packet.GlobalAddr) (packet.Word, packet.Word)
	barrier func(tc *TC, b *Barrier)
}

var (
	refForm = form{
		read: func(tc *TC, c sim.Time, a packet.GlobalAddr) packet.Word {
			tc.Compute(c)
			return tc.Read(a)
		},
		block: func(tc *TC, c sim.Time, a packet.GlobalAddr, n int) []packet.Word {
			tc.Compute(c)
			return tc.ReadBlock(a, n)
		},
		pair: func(tc *TC, c sim.Time, a, b packet.GlobalAddr) (packet.Word, packet.Word) {
			tc.Compute(c)
			x := tc.Read(a)
			return x, tc.Read(b)
		},
		barrier: refBarrier,
	}
	fusedForm = form{
		read:    (*TC).ComputeRead,
		block:   (*TC).ComputeReadBlock,
		pair:    (*TC).ComputeReadPair,
		barrier: (*TC).Barrier,
	}
)

// fusedCase is one generated machine and workload.
type fusedCase struct {
	p, h, iters int
	mode        proc.ServiceMode
	replyHigh   bool
	maxCycles   sim.Time // 0: no budget
	seed        int64
}

func (c fusedCase) String() string {
	return fmt.Sprintf("P=%d h=%d iters=%d mode=%v replyHigh=%t max=%d seed=%d",
		c.p, c.h, c.iters, c.mode, c.replyHigh, c.maxCycles, c.seed)
}

// fusedOutcome is everything a run of a fusedCase shows.
type fusedOutcome struct {
	run     *metrics.Run
	err     string
	stats   []metrics.PE
	events  []obs.Event
	dropped uint64
	sums    []uint64
}

// runFusedCase runs c with every thread written in form f. Each thread
// draws its operations from its own seeded stream, so both forms issue
// the same operations; reads of words that remote writes change make
// the values depend on the exact timing.
func runFusedCase(t *testing.T, c fusedCase, f form) fusedOutcome {
	cfg := DefaultConfig(c.p)
	cfg.MemWords = 1 << 10
	cfg.Proc.Mode = c.mode
	if c.replyHigh {
		cfg.Proc.ReplyPrio = thread.High
	}
	cfg.MaxCycles = c.maxCycles
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Options{P: c.p, Capacity: 1 << 18,
		Retain: obs.MaskOf(obs.CatThread, obs.CatSwitch, obs.CatCycle, obs.CatPacket, obs.CatNet, obs.CatSched)})
	m.SetObs(tr)
	for pe := 0; pe < c.p; pe++ {
		for off := uint32(0); off < 128; off++ {
			m.Mem(packet.PE(pe)).Poke(off, packet.Word(pe<<8)|packet.Word(off))
		}
	}
	b := m.NewBarrier("b", c.h)
	sums := make([]uint64, c.p*c.h)
	for pe := 0; pe < c.p; pe++ {
		for th := 0; th < c.h; th++ {
			pe, th := pe, th
			m.SpawnAt(packet.PE(pe), "w", 0, func(tc *TC) {
				rng := rand.New(rand.NewSource(c.seed*7919 + int64(pe*c.h+th)))
				addr := func() packet.GlobalAddr {
					return packet.GlobalAddr{PE: packet.PE(rng.Intn(c.p)), Off: uint32(rng.Intn(64))}
				}
				var sum uint64
				if c.maxCycles > 0 && pe == 0 && th == 0 {
					// A prefix whose resume point lies past the budget.
					sum += uint64(f.read(tc, c.maxCycles, addr()))
				}
				for it := 0; it < c.iters; it++ {
					var pre sim.Time
					if rng.Intn(4) > 0 {
						pre = sim.Time(1 + rng.Intn(300))
					}
					switch rng.Intn(4) {
					case 0:
						sum += uint64(f.read(tc, pre, addr()))
					case 1:
						x, y := f.pair(tc, pre, addr(), addr())
						sum += 3*uint64(x) + uint64(y)
					case 2:
						for _, w := range f.block(tc, pre, addr(), 1+rng.Intn(4)) {
							sum = 5*sum + uint64(w)
						}
					case 3:
						tc.Compute(pre)
						tc.Write(addr(), packet.Word(rng.Uint32()))
					}
					f.barrier(tc, b)
				}
				sums[pe*c.h+th] = sum
			})
		}
	}
	run, err := m.Run()
	out := fusedOutcome{run: run, stats: m.stats, events: tr.Events(), dropped: tr.Profile().TotalDropped(), sums: sums}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestFusedOperationsMatchReferences is the exactness property of the
// fused operations: over seeded random machines (P in [1, 100], non-
// powers of two included, h <= 16, both service modes, both reply
// priorities, prefixes of 0 and more, and budgets that cut the run),
// the fused and coroutine-side forms give identical measurements, the
// same event stream from an enabled tracer, and the same values read.
func TestFusedOperationsMatchReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	nonPow2, cut := 0, 0
	trials := 48
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		c := fusedCase{
			p:         1 + rng.Intn(100),
			h:         1 + rng.Intn(16),
			iters:     1 + rng.Intn(3),
			mode:      proc.ServiceMode(rng.Intn(2)),
			replyHigh: rng.Intn(2) == 1,
			seed:      int64(trial),
		}
		switch trial % 8 {
		case 0:
			c.p = 1
		case 1:
			c.p = 2 + rng.Intn(3)
		}
		if c.p*c.h > 400 {
			c.h = max(1, 400/c.p)
		}
		if trial%3 == 2 {
			c.maxCycles = sim.Time(100 + rng.Intn(1500))
		}
		ref, fused := runFusedCase(t, c, refForm), runFusedCase(t, c, fusedForm)
		if ref.dropped != 0 {
			t.Fatalf("%v: tracer dropped %d events; raise its capacity", c, ref.dropped)
		}
		if ref.err != fused.err {
			t.Fatalf("%v: error %q, fused %q", c, ref.err, fused.err)
		}
		if !reflect.DeepEqual(ref.run, fused.run) {
			t.Fatalf("%v: metrics differ:\nref   %+v\nfused %+v", c, ref.run, fused.run)
		}
		if !reflect.DeepEqual(ref.stats, fused.stats) {
			t.Fatalf("%v: per-PE accounting differs", c)
		}
		if !reflect.DeepEqual(ref.sums, fused.sums) {
			t.Fatalf("%v: values read differ", c)
		}
		if len(ref.events) != len(fused.events) {
			t.Fatalf("%v: %d events, fused %d", c, len(ref.events), len(fused.events))
		}
		for i := range ref.events {
			if ref.events[i] != fused.events[i] {
				t.Fatalf("%v: event %d is %+v, fused %+v", c, i, ref.events[i], fused.events[i])
			}
		}
		if c.p&(c.p-1) != 0 {
			nonPow2++
		}
		if ref.err != "" {
			cut++
		}
	}
	if nonPow2 == 0 || cut == 0 {
		t.Fatalf("generator covered %d non-power-of-two machines and %d cut runs, want some of each", nonPow2, cut)
	}
}
