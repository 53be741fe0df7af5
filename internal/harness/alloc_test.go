package harness

import (
	"runtime"
	"testing"

	"emx/internal/proc"
)

// coldPointAllocs bounds the host allocations of one small simulation
// run from scratch (bitonic, P=8, n=1024, h=4): machine setup, the
// workload's data, the thread coroutines and block-read slices. Events,
// packets, remote reads and suspensions allocate nothing once the node
// slab and the packet free list reach their peak, so the count does
// not grow with the events a run dispatches. It measured 859.
const coldPointAllocs = 2000

// coldPointBytes bounds the bytes one run of the same point allocates:
// half of the 264.8 KiB it took when each PE's memory had a page table
// for 1 Mi words and a 16 KB page. With memory that follows the touched
// words it measured 97.8 KiB.
const coldPointBytes = 132 << 10

var smallColdPoint = PointSpec{Workload: Bitonic, P: 8, SimN: 1024, PaperN: 1024, H: 4, Seed: 1}

// TestSmallColdPointAllocs pins the per-run allocation count of a small
// cold point, the unit of work a daemon executes for a never-seen
// request.
func TestSmallColdPointAllocs(t *testing.T) {
	ps := smallColdPoint
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		if _, e := RunPoint(ps); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > coldPointAllocs {
		t.Fatalf("%.0f allocations per run of %s, want at most %d", allocs, ps.Label(), coldPointAllocs)
	}
}

// TestSmallColdPointAllocBytes pins the bytes a run of the small cold
// point allocates, so per-PE allocation sized by the simulated memory
// rather than the touched words cannot come back unnoticed.
func TestSmallColdPointAllocBytes(t *testing.T) {
	ps := smallColdPoint
	if _, err := RunPoint(ps); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := RunPoint(ps); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > coldPointBytes {
		t.Fatalf("%d bytes allocated per run of %s, want at most %d", b, ps.Label(), coldPointBytes)
	}
}

// runKeyAllocs bounds the allocations of one PointSpec.Key: the config
// fingerprint string and the key string. The key text is appended into
// a stack buffer and hashed there; built with fmt it took 19.
const runKeyAllocs = 2

// TestRunKeyAllocs pins the allocations of building one run key, which
// a figure request does for every cell of its sweeps, hit or miss.
func TestRunKeyAllocs(t *testing.T) {
	ps := PointSpec{Workload: FFT, P: 64, SimN: 16384, H: 16, Mode: proc.ServiceEXU, ReplyHigh: true, Seed: -1}
	if allocs := testing.AllocsPerRun(100, func() { keySink = ps.Key(0) }); allocs > runKeyAllocs {
		t.Fatalf("%.0f allocations per PointSpec.Key, want at most %d", allocs, runKeyAllocs)
	}
}
