package core

import (
	"fmt"
	"strings"
	"testing"

	"emx/internal/metrics"
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/proc"
	"emx/internal/thread"
)

// TestPacketsReturnToFreeList checks the packet lifetimes: every packet
// a clean run allocated is back on the machine's free list when the run
// ends, whatever kinds it carried and however requests were serviced.
func TestPacketsReturnToFreeList(t *testing.T) {
	cases := []struct {
		name  string
		p     int
		setup func(cfg *Config)
		body  func(m *Machine)
	}{
		{"spawn-only", 1, nil, func(m *Machine) {
			m.SpawnAt(0, "main", 0, func(tc *TC) { tc.Compute(1) })
		}},
		{"bypass", 4, nil, everyPacketKind},
		{"exu-service", 4, func(cfg *Config) { cfg.Proc.Mode = proc.ServiceEXU }, everyPacketKind},
		{"reply-high", 4, func(cfg *Config) { cfg.Proc.ReplyPrio = thread.High }, everyPacketKind},
		{"one-pe", 1, nil, everyPacketKind},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(c.p)
			cfg.MemWords = 1 << 12
			if c.setup != nil {
				c.setup(&cfg)
			}
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.body(m)
			mustRun(t, m)
			if m.free.Allocated == 0 {
				t.Fatal("the run allocated no packets")
			}
			if got := m.free.Len(); got != int(m.free.Allocated) {
				t.Fatalf("%d of %d allocated packets are back on the free list", got, m.free.Allocated)
			}
		})
	}
}

// everyPacketKind spawns, on every PE, threads that send every packet
// kind: single and block reads (requests and replies), writes, remote
// spawns (invokes), barrier syncs and the resumes of yields and waits.
// Twelve threads per PE overflow the on-chip FIFOs.
func everyPacketKind(m *Machine) {
	p := packet.PE(m.P())
	const h = 12
	b := m.NewBarrier("b", h)
	ws := m.NewWaitSet()
	done := 0
	for pe := packet.PE(0); pe < p; pe++ {
		for k := 0; k < h; k++ {
			m.SpawnAt(pe, "worker", packet.Word(k), func(tc *TC) {
				next := (tc.PE() + 1) % p
				for i := uint32(0); i < 3; i++ {
					tc.Write(packet.GlobalAddr{PE: next, Off: 64 + i}, packet.Word(i))
					tc.Read(packet.GlobalAddr{PE: next, Off: i})
					tc.ReadBlock(packet.GlobalAddr{PE: next, Off: 8}, 4)
					tc.ReadBlock(packet.GlobalAddr{PE: next, Off: 16}, 1)
					tc.Yield(metrics.SwitchExplicit)
					tc.Barrier(b)
				}
				tc.Spawn(next, "child", 0, func(tc *TC) {
					tc.Compute(2)
					done++
					ws.Notify()
				})
				tc.WaitUntil(metrics.SwitchThreadSync, ws, func() bool { return done == int(p)*h })
			})
		}
	}
}

// TestFrameIDsArePerPEFromOne: frame IDs count up from 1 on each PE
// independently, in spawn order — the IDs obs events, the thread-name
// table and the emxprof goldens carry.
func TestFrameIDsArePerPEFromOne(t *testing.T) {
	m := newTestMachine(t, 2)
	tr := obs.New(obs.Options{P: 2})
	m.SetObs(tr)
	for _, pe := range []packet.PE{1, 0, 1, 1, 0} {
		m.SpawnAt(pe, fmt.Sprintf("pe%d", pe), 0, func(tc *TC) { tc.Compute(1) })
	}
	mustRun(t, m)
	next := map[int32]uint32{0: 1, 1: 1}
	for _, n := range tr.Names() {
		if n.Frame != next[n.PE] {
			t.Fatalf("PE%d thread %q has frame %d, want %d", n.PE, n.Name, n.Frame, next[n.PE])
		}
		next[n.PE]++
	}
	if next[0] != 3 || next[1] != 4 {
		t.Fatalf("named frames per PE: %v", next)
	}
}

// TestPacketForDeadFramePanics: a resume or reply addressed to a frame
// whose thread finished — or that was never allocated — is a runtime
// invariant violation, not a silent drop.
func TestPacketForDeadFramePanics(t *testing.T) {
	m := newTestMachine(t, 1)
	m.SpawnAt(0, "main", 0, func(tc *TC) { tc.Compute(1) })
	mustRun(t, m)
	for _, frame := range []uint32{1, 0, 7} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprintf("dead frame %d", frame)) {
					t.Errorf("frame %d: recovered %v, want a dead-frame panic", frame, r)
				}
			}()
			m.exus[0].handle(&packet.Packet{
				Kind: packet.KindResume,
				Cont: packet.Continuation{PE: 0, Frame: frame},
			})
		}()
	}
}
