package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// testLane is an attached calendar of integer items: the test double of
// the network's step calendar.
type testLane struct {
	cal Calendar[int64]
	run func(int64)
}

func (l *testLane) Fire() {
	for {
		l.run(l.cal.Pop())
		if !l.cal.eng.LaneNext() {
			return
		}
	}
}

func attachTestLane(e *Engine, run func(int64)) *testLane {
	l := &testLane{run: run}
	Attach(e, &l.cal, l)
	return l
}

func TestAttachTwicePanics(t *testing.T) {
	e := NewEngine()
	attachTestLane(e, func(int64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Attach did not panic")
		}
	}()
	attachTestLane(e, func(int64) {})
}

func TestLaneEqualTimeOrdering(t *testing.T) {
	// At one time, engine events and lane items run in scheduling order,
	// whether each sits in its calendar's ring or on its heap: heap
	// entries are the ones scheduled while the time was still beyond the
	// near-future window.
	e := NewEngine()
	var got []int64
	l := attachTestLane(e, func(n int64) { got = append(got, n) })
	h := recordH{&got}
	const far = ringSize + 10
	e.AtHandler(far, h, num(0)) // engine heap
	l.cal.At(far, 1)            // lane heap
	e.AtHandler(far, h, num(2)) // engine heap
	e.At(20, func() {
		// The window now covers far: these go to the rings.
		l.cal.At(far, 3)
		e.AtHandler(far, h, num(4))
		l.cal.At(far, 5)
		got = append(got, 100)
	})
	l.cal.At(20, 10) // scheduled after the closure at 20, so runs after it
	e.Run()
	want := []int64{100, 10, 0, 1, 2, 3, 4, 5}
	if !equalInts(got, want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	if e.Now() != far {
		t.Fatalf("clock at %d, want %d", e.Now(), Time(far))
	}
}

func TestLaneRunUntilDeadline(t *testing.T) {
	e := NewEngine()
	var got []int64
	l := attachTestLane(e, func(n int64) { got = append(got, n) })
	l.cal.At(5, 5)
	e.At(7, func() { got = append(got, 7) })
	l.cal.At(12, 12)
	if more := e.RunUntil(10); !more || e.Now() != 10 {
		t.Fatalf("RunUntil(10) = %v at %d, want true at 10", more, e.Now())
	}
	if !equalInts(got, []int64{5, 7}) {
		t.Fatalf("dispatched %v by the deadline, want [5 7]", got)
	}
	// A lane item exactly at the deadline runs.
	if more := e.RunUntil(12); more || e.Now() != 12 {
		t.Fatalf("RunUntil(12) = %v at %d, want false at 12", more, e.Now())
	}
	if !equalInts(got, []int64{5, 7, 12}) {
		t.Fatalf("dispatched %v, want [5 7 12]", got)
	}
	// Lane items are not engine events.
	if e.Events() != 1 {
		t.Fatalf("Events() = %d, want 1 (the closure)", e.Events())
	}
}

func TestLaneStepAndPending(t *testing.T) {
	e := NewEngine()
	var got []int64
	l := attachTestLane(e, func(n int64) { got = append(got, n) })
	l.cal.At(3, 3)
	l.cal.At(ringSize+4, 4)
	e.At(2, func() { got = append(got, 2) })
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", e.Pending())
	}
	for i, want := range []Time{2, 3, ringSize + 4} {
		if !e.Step() || e.Now() != want {
			t.Fatalf("step %d at %d, want %d", i, e.Now(), want)
		}
		if e.Pending() != 2-i {
			t.Fatalf("after step %d Pending() = %d, want %d", i, e.Pending(), 2-i)
		}
	}
	if e.Step() {
		t.Fatal("Step with nothing pending returned true")
	}
	if !equalInts(got, []int64{2, 3, 4}) {
		t.Fatalf("dispatched %v, want [2 3 4]", got)
	}
}

func TestLaneSchedulingInThePastPanics(t *testing.T) {
	e := NewEngine()
	l := attachTestLane(e, func(int64) {})
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("lane item in the past did not panic")
			}
		}()
		l.cal.At(4, 0)
	})
	e.Run()
}

func TestLaneMergeRandomized(t *testing.T) {
	// Property: engine events and lane items scheduled at times spanning
	// both rings and both heaps, including from inside each other, run in
	// (time, scheduling order), and each slab holds at most its peak
	// pending near items plus the sentinel.
	type stamp struct {
		at  Time
		seq int
	}
	delays := [...]Time{0, 0, 1, 3, ringSize - 1, ringSize, ringSize + 1, 2*ringSize + 5}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		e := NewEngine()
		var got, want []stamp
		var l *testLane
		var fires []func()
		peakE, peakL := 0, 0
		var push func(at Time, depth int)
		push = func(at Time, depth int) {
			seq := len(want)
			want = append(want, stamp{at, seq})
			children := 0
			if depth > 0 {
				children = rng.Intn(3)
			}
			first := rng.Intn(len(delays))
			fires = append(fires, func() {
				got = append(got, stamp{e.Now(), seq})
				for k := 0; k < children; k++ {
					push(e.Now()+delays[(first+k)%len(delays)], depth-1)
				}
			})
			if rng.Intn(2) == 0 {
				e.At(at, fires[seq])
			} else {
				l.cal.At(at, int64(seq))
			}
			peakE, peakL = max(peakE, e.q.near), max(peakL, l.cal.near)
		}
		l = attachTestLane(e, func(n int64) { fires[n]() })
		for i := 0; i < 1+rng.Intn(60); i++ {
			push(Time(rng.Intn(3*ringSize)), 2)
		}
		e.Run()
		if len(e.q.slab) > peakE+1 || len(l.cal.slab) > peakL+1 {
			t.Fatalf("trial %d: slabs %d and %d for peaks %d and %d", trial, len(e.q.slab), len(l.cal.slab), peakE, peakL)
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		if len(got) != len(want) {
			t.Fatalf("trial %d: dispatched %d of %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: dispatch %d is %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestLaneItemsDoNotAllocate: a lane's steady-state scheduling and
// dispatch, near and far, allocate nothing once its slab and heap have
// reached their peaks.
func TestLaneItemsDoNotAllocate(t *testing.T) {
	e := NewEngine()
	var l *testLane
	l = attachTestLane(e, func(n int64) {
		l.cal.At(e.Now()+Time(n%7)+Time(n%2)*ringSize, n+1)
	})
	for i := 0; i < 16; i++ {
		l.cal.At(Time(i), int64(i))
	}
	deadline := Time(1 << 14)
	e.RunUntil(deadline)
	allocs := testing.AllocsPerRun(16, func() {
		deadline += 1024
		e.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Fatalf("lane allocated %.1f per window, want 0", allocs)
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// laneItem is a 16 B item with one pointer, the shape of a network step.
type laneItem struct {
	p *int64
	v int64
}

// itemLane runs laneItems the way the network's lane runs its steps.
type itemLane struct {
	cal Calendar[laneItem]
	sum int64
}

func (l *itemLane) Fire() {
	for {
		it := l.cal.Pop()
		*it.p += it.v
		if !l.cal.eng.LaneNext() {
			return
		}
	}
}

// BenchmarkLaneItem is the scheduling cost of one network step apart
// from the port model: one At, one Pop and one LaneNext of a 16 B item
// through an attached calendar. Steady state must report 0 allocs/op.
func BenchmarkLaneItem(b *testing.B) {
	e := NewEngine()
	l := &itemLane{}
	Attach(e, &l.cal, l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.cal.At(e.Now()+Time(i%64), laneItem{&l.sum, 1})
		if e.Pending() > 1024 {
			e.RunUntil(e.Now() + 16)
		}
	}
	e.Run()
}
