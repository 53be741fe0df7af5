package harness

import "testing"

// coldPointAllocs bounds the host allocations of one small simulation
// run from scratch (bitonic, P=8, n=1024, h=4): machine setup, the
// workload's data, the thread coroutines and block-read slices. Events,
// packets, remote reads and suspensions allocate nothing once the node
// slab and the packet free list reach their peak, so the count does
// not grow with the events a run dispatches. It measured 917.
const coldPointAllocs = 2000

// TestSmallColdPointAllocs pins the per-run allocation count of a small
// cold point, the unit of work a daemon executes for a never-seen
// request.
func TestSmallColdPointAllocs(t *testing.T) {
	ps := PointSpec{Workload: Bitonic, P: 8, SimN: 1024, PaperN: 1024, H: 4, Seed: 1}
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
