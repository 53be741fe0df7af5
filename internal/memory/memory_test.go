package memory

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emx/internal/packet"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(3, 1024)
	done := m.Write(0, PortEXU, 10, 0xdead)
	if done != AccessCycles {
		t.Fatalf("write completion %d, want %d", done, AccessCycles)
	}
	v, done2 := m.Read(done, PortEXU, 10)
	if v != 0xdead {
		t.Fatalf("read back %#x, want 0xdead", uint32(v))
	}
	if done2 != done+AccessCycles {
		t.Fatalf("read completion %d, want %d", done2, done+AccessCycles)
	}
}

func TestMCUArbitrationSerializesPorts(t *testing.T) {
	m := New(0, 64)
	// EXU and DMA request at the same cycle: MCU must serialize them.
	_, d1 := m.Read(100, PortEXU, 0)
	_, d2 := m.Read(100, PortDMA, 1)
	if d1 != 100+AccessCycles {
		t.Fatalf("first access done %d, want %d", d1, 100+AccessCycles)
	}
	if d2 != d1+AccessCycles {
		t.Fatalf("contended access done %d, want %d (serialized)", d2, d1+AccessCycles)
	}
}

func TestReadBlock(t *testing.T) {
	m := New(0, 128)
	for i := 0; i < 8; i++ {
		m.Poke(uint32(16+i), packet.Word(i*i))
	}
	ws, done := m.ReadBlock(0, PortDMA, 16, 8, nil)
	if done != 8*AccessCycles {
		t.Fatalf("block completion %d, want %d", done, 8*AccessCycles)
	}
	for i, w := range ws {
		if w != packet.Word(i*i) {
			t.Fatalf("block[%d] = %d, want %d", i, w, i*i)
		}
	}
	// The returned slice must be a copy, not an alias.
	ws[0] = 999
	if m.Peek(16) == 999 {
		t.Fatal("ReadBlock aliases memory")
	}
	// A buffer with room is reused; a short one is replaced.
	buf := make([]packet.Word, 2, 8)
	if ws, _ := m.ReadBlock(0, PortDMA, 16, 8, buf); &ws[0] != &buf[0] || ws[7] != 49 {
		t.Fatal("ReadBlock did not read into the buffer it was given")
	}
	if ws, _ := m.ReadBlock(0, PortDMA, 16, 8, buf[:0:4]); len(ws) != 8 || &ws[0] == &buf[0] {
		t.Fatal("ReadBlock wrote past a buffer without room")
	}
}

func TestAccessCounters(t *testing.T) {
	m := New(0, 64)
	m.Read(0, PortEXU, 0)
	m.Read(0, PortDMA, 0)
	m.ReadBlock(0, PortDMA, 0, 4, nil)
	m.Write(0, PortEXU, 1, 7)
	if m.Reads[PortEXU] != 1 || m.Reads[PortDMA] != 5 {
		t.Fatalf("reads = %v", m.Reads)
	}
	if m.Writes[PortEXU] != 1 || m.Writes[PortDMA] != 0 {
		t.Fatalf("writes = %v", m.Writes)
	}
	if m.MCUBusy() != 7*AccessCycles {
		t.Fatalf("MCU busy %d, want %d", m.MCUBusy(), 7*AccessCycles)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(0, 16)
	for name, fn := range map[string]func(){
		"read":       func() { m.Read(0, PortEXU, 16) },
		"write":      func() { m.Write(0, PortEXU, 99, 0) },
		"block-tail": func() { m.ReadBlock(0, PortDMA, 12, 8, nil) },
		"peek":       func() { m.Peek(1 << 30) },
		"poke-block": func() { m.PokeBlock(15, []packet.Word{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPokePeekBlocks(t *testing.T) {
	m := New(0, 64)
	src := []packet.Word{5, 6, 7, 8}
	m.PokeBlock(20, src)
	got := m.PeekBlock(20, 4)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("peek block %v, want %v", got, src)
		}
	}
}

func TestDefaultSize(t *testing.T) {
	m := New(0, 0)
	if m.Size() != DefaultWords {
		t.Fatalf("default size %d, want %d", m.Size(), DefaultWords)
	}
	if m.PE() != 0 {
		t.Fatalf("PE() = %d", m.PE())
	}
}

func TestMemoryContentProperty(t *testing.T) {
	// Property: after an arbitrary sequence of pokes, peeks observe the
	// last value written per cell.
	check := func(ops []struct {
		Off uint16
		Val uint32
	}) bool {
		m := New(0, 1<<16)
		shadow := map[uint32]packet.Word{}
		for _, op := range ops {
			m.Poke(uint32(op.Off), packet.Word(op.Val))
			shadow[uint32(op.Off)] = packet.Word(op.Val)
		}
		for off, want := range shadow {
			if m.Peek(off) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(126))}); err != nil {
		t.Fatal(err)
	}
}
