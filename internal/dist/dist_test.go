package dist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChunkEven(t *testing.T) {
	lo, hi := Chunk(16, 4, 0)
	if lo != 0 || hi != 4 {
		t.Fatalf("chunk 0 = [%d,%d)", lo, hi)
	}
	lo, hi = Chunk(16, 4, 3)
	if lo != 12 || hi != 16 {
		t.Fatalf("chunk 3 = [%d,%d)", lo, hi)
	}
}

func TestChunkUneven(t *testing.T) {
	// bl=10, h=3: sizes 4,3,3.
	want := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for th, w := range want {
		lo, hi := Chunk(10, 3, th)
		if lo != w[0] || hi != w[1] {
			t.Fatalf("chunk %d = [%d,%d), want %v", th, lo, hi, w)
		}
	}
}

func TestChunkEmptyTail(t *testing.T) {
	// More threads than elements: threads beyond bl get empty ranges.
	seen := 0
	for th := 0; th < 8; th++ {
		lo, hi := Chunk(5, 8, th)
		seen += hi - lo
		if hi-lo > 1 {
			t.Fatalf("chunk %d = [%d,%d), want size <= 1", th, lo, hi)
		}
	}
	if seen != 5 {
		t.Fatalf("chunks cover %d elements, want 5", seen)
	}
}

func TestChunkPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"h=0":      func() { Chunk(4, 0, 0) },
		"th=-1":    func() { Chunk(4, 2, -1) },
		"th>=h":    func() { Chunk(4, 2, 2) },
		"of-i=-1":  func() { ChunkOf(4, 2, -1) },
		"of-i>=bl": func() { ChunkOf(4, 2, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestChunkPartitionProperty(t *testing.T) {
	// Property: chunks tile [0, bl) exactly, in order, sizes differ by <=1,
	// and ChunkOf inverts Chunk.
	check := func(blRaw, hRaw uint16) bool {
		bl := int(blRaw%500) + 1
		h := int(hRaw%20) + 1
		prev := 0
		minSize, maxSize := bl+1, -1
		for th := 0; th < h; th++ {
			lo, hi := Chunk(bl, h, th)
			if lo != prev || hi < lo {
				return false
			}
			if s := hi - lo; s < minSize {
				minSize = s
			}
			if s := hi - lo; s > maxSize {
				maxSize = s
			}
			for i := lo; i < hi; i++ {
				if ChunkOf(bl, h, i) != th {
					return false
				}
			}
			prev = hi
		}
		return prev == bl && maxSize-minSize <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(64))}); err != nil {
		t.Fatal(err)
	}
}
