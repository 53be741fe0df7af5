package memory

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"emx/internal/packet"
	"emx/internal/sim"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(3, 1024)
	done := m.Write(0, 10, 0xdead)
	if done != AccessCycles {
		t.Fatalf("write completion %d, want %d", done, AccessCycles)
	}
	v, done2 := m.Read(done, 10)
	if v != 0xdead {
		t.Fatalf("read back %#x, want 0xdead", uint32(v))
	}
	if done2 != done+AccessCycles {
		t.Fatalf("read completion %d, want %d", done2, done+AccessCycles)
	}
}

func TestMCUArbitrationSerializesPorts(t *testing.T) {
	m := New(0, 64)
	// The EXU and the DMA share one MCU: two requests at the same cycle
	// are served one after the other.
	_, d1 := m.Read(100, 0)
	_, d2 := m.Read(100, 1)
	if d1 != 100+AccessCycles {
		t.Fatalf("first access done %d, want %d", d1, 100+AccessCycles)
	}
	if d2 != d1+AccessCycles {
		t.Fatalf("contended access done %d, want %d (serialized)", d2, d1+AccessCycles)
	}
}

func TestAccessCounters(t *testing.T) {
	m := New(0, 64)
	// Every word of every access occupies the MCU for AccessCycles: two
	// reads, a 4-word block and a write issued at cycle 0 finish 7 words
	// in, each queued behind the one before it.
	_, d1 := m.Read(0, 0)
	_, d2 := m.Read(0, 0)
	_, d3 := m.ReadBlock(0, 0, 4, nil)
	d4 := m.Write(0, 1, 7)
	if got, want := []sim.Time{d1, d2, d3, d4}, []sim.Time{1 * AccessCycles, 2 * AccessCycles, 6 * AccessCycles, 7 * AccessCycles}; !slices.Equal(got, want) {
		t.Fatalf("completion times %v, want %v", got, want)
	}
	if v, _ := m.Read(0, 1); v != 7 {
		t.Fatalf("read back %d, want 7", v)
	}
}

func TestReadBlock(t *testing.T) {
	m := New(0, 128)
	for i := 0; i < 8; i++ {
		m.Poke(uint32(16+i), packet.Word(i*i))
	}
	ws, done := m.ReadBlock(0, 16, 8, nil)
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
	if ws, _ := m.ReadBlock(0, 16, 8, buf); &ws[0] != &buf[0] || ws[7] != 49 {
		t.Fatal("ReadBlock did not read into the buffer it was given")
	}
	if ws, _ := m.ReadBlock(0, 16, 8, buf[:0:4]); len(ws) != 8 || &ws[0] == &buf[0] {
		t.Fatal("ReadBlock wrote past a buffer without room")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(0, 16)
	for name, fn := range map[string]func(){
		"read":       func() { m.Read(0, 16) },
		"write":      func() { m.Write(0, 99, 0) },
		"block-tail": func() { m.ReadBlock(0, 12, 8, nil) },
		"peek":       func() { m.Peek(1 << 30) },
		"poke":       func() { m.Poke(16, 1) },
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

func TestDefaultSize(t *testing.T) {
	m := New(0, 0)
	if m.Size() != DefaultWords {
		t.Fatalf("default size %d, want %d", m.Size(), DefaultWords)
	}
	if m.PE() != 0 {
		t.Fatalf("PE() = %d", m.PE())
	}
}

// model is the reference a Local must match: one flat zeroed array and
// the MCU's busy-until time.
type model struct {
	words  []packet.Word
	freeAt sim.Time
}

func (r *model) mcu(now sim.Time, words int) sim.Time {
	r.freeAt = max(now, r.freeAt) + AccessCycles*sim.Time(words)
	return r.freeAt
}

// rangePanic is the message check gives for the access [off, off+n).
func rangePanic(m *Local, off uint32, n int) string {
	return fmt.Sprintf("memory: PE%d access [%#x,%#x) out of range (size %#x words)",
		m.PE(), off, int(off)+n, m.Size())
}

// panicOf runs fn and returns what it panicked with, or nil.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestMemoryContentProperty(t *testing.T) {
	// Model test: random operations on memories of random sizes (most
	// not a multiple of the growth step) observe exactly what a flat
	// zeroed array with the same operations holds, complete at the same
	// MCU times and panic on the same out-of-range accesses with the
	// same message.
	rng := rand.New(rand.NewSource(126))
	sizes := []int{1, 2, minWords - 1, minWords, minWords + 1, 3*minWords + 5, 5000}
	for range 20 {
		sizes = append(sizes, 1+rng.Intn(4*minWords))
	}
	for _, size := range sizes {
		m := New(packet.PE(size%7), size)
		ref := &model{words: make([]packet.Word, size)}
		if m.Size() != size {
			t.Fatalf("size %d: Size() = %d", size, m.Size())
		}
		if w := m.Peek(uint32(size - 1)); w != 0 {
			t.Fatalf("size %d: unwritten top word reads %d", size, w)
		}
		// offset draws a word offset: the top word, the bottom word or
		// any in range, and now and then one out of range.
		offset := func() uint32 {
			switch rng.Intn(8) {
			case 0:
				return uint32(size - 1)
			case 1:
				return 0
			case 2:
				return uint32(size + rng.Intn(3))
			default:
				return uint32(rng.Intn(size))
			}
		}
		var now sim.Time
		for op := range 400 {
			now += sim.Time(rng.Intn(4))
			off := offset()
			n := 1 + rng.Intn(9)
			w := packet.Word(rng.Uint32())
			var (
				name string
				fn   func()
				want string
			)
			switch rng.Intn(5) {
			case 0:
				name, n = "Read", 1
				fn = func() {
					got, done := m.Read(now, off)
					if want := ref.mcu(now, 1); got != ref.words[off] || done != want {
						t.Fatalf("size %d op %d: Read(%d) = %d at %d, want %d at %d",
							size, op, off, got, done, ref.words[off], want)
					}
				}
			case 1:
				name, n = "Write", 1
				fn = func() {
					done := m.Write(now, off, w)
					ref.words[off] = w
					if want := ref.mcu(now, 1); done != want {
						t.Fatalf("size %d op %d: Write(%d) done at %d, want %d", size, op, off, done, want)
					}
				}
			case 2:
				name = "ReadBlock"
				buf := make([]packet.Word, rng.Intn(12))
				for i := range buf {
					buf[i] = 0xbad
				}
				fn = func() {
					got, done := m.ReadBlock(now, off, n, buf)
					if want := ref.mcu(now, n); done != want || !slices.Equal(got, ref.words[off:int(off)+n]) {
						t.Fatalf("size %d op %d: ReadBlock(%d, %d) = %v at %d, want %v at %d",
							size, op, off, n, got, done, ref.words[off:int(off)+n], want)
					}
				}
			case 3:
				name, n = "Peek", 1
				fn = func() {
					if got := m.Peek(off); got != ref.words[off] {
						t.Fatalf("size %d op %d: Peek(%d) = %d, want %d", size, op, off, got, ref.words[off])
					}
				}
			case 4:
				name, n = "Poke", 1
				fn = func() {
					m.Poke(off, w)
					ref.words[off] = w
				}
			}
			if int(off)+n > size {
				want = rangePanic(m, off, n)
			}
			if got := panicOf(fn); got != nil && got != any(want) || got == nil && want != "" {
				t.Fatalf("size %d op %d: %s(%d, %d) panicked with %v, want %q", size, op, name, off, n, got, want)
			}
		}
		for off := range ref.words {
			if got := m.Peek(uint32(off)); got != ref.words[off] {
				t.Fatalf("size %d: final word %d = %d, want %d", size, off, got, ref.words[off])
			}
		}
	}
}

func TestMemoryAccessDoesNotAllocate(t *testing.T) {
	// Once the slice covers the offsets, word and block accesses through
	// a caller buffer allocate nothing, nor do reads past the slice.
	m := New(0, DefaultWords)
	m.Poke(4095, 1)
	buf := make([]packet.Word, 16)
	var now sim.Time
	allocs := testing.AllocsPerRun(100, func() {
		now = m.Write(now, 100, 7)
		_, now = m.Read(now, 100)
		_, now = m.Read(now, DefaultWords-1)
		_, now = m.ReadBlock(now, 4090, 16, buf)
		m.Poke(4095, m.Peek(4094))
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per round of accesses, want 0", allocs)
	}
}
