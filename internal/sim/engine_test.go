package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if got := e.Run(); got != 0 {
		t.Fatalf("empty run returned %d, want 0", got)
	}
	if e.Events() != 0 {
		t.Fatalf("events = %d, want 0", e.Events())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{5, 1, 3, 3, 2} {
		d := d
		e.At(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{1, 2, 3, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d at time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOWithinCycle(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events reordered: got %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.At(1, func() {
		trace = append(trace, "a")
		e.After(2, func() { trace = append(trace, "c") })
		e.After(0, func() { trace = append(trace, "b") })
	})
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time %d, want 3", end)
	}
	if len(trace) != 3 || trace[0] != "a" || trace[1] != "b" || trace[2] != "c" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineStopAndResume(t *testing.T) {
	e := NewEngine()
	var n int
	for i := 1; i <= 5; i++ {
		e.At(Time(i), func() {
			n++
			if n == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 2 {
		t.Fatalf("after stop: n = %d, want 2", n)
	}
	e.Run()
	if n != 5 {
		t.Fatalf("after resume: n = %d, want 5", n)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var n int
	for i := 1; i <= 10; i++ {
		e.At(Time(i*10), func() { n++ })
	}
	more := e.RunUntil(35)
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	if !more {
		t.Fatal("RunUntil reported no pending events")
	}
	if e.Now() != 35 {
		t.Fatalf("clock = %d, want 35", e.Now())
	}
	more = e.RunUntil(1000)
	if more || n != 10 {
		t.Fatalf("more=%v n=%d, want false 10", more, n)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	e.At(4, func() {})
	e.At(2, func() {})
	if !e.Step() || e.Now() != 2 {
		t.Fatalf("first step at %d, want 2", e.Now())
	}
	if !e.Step() || e.Now() != 4 {
		t.Fatalf("second step at %d, want 4", e.Now())
	}
	if e.Step() {
		t.Fatal("step on empty heap returned true")
	}
}

func TestEngineHeapRandomized(t *testing.T) {
	// Property: for arbitrary schedules, dispatch order is sorted by time
	// with same-time ties in insertion order.
	check := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		e := NewEngine()
		type stamp struct {
			at  Time
			seq int
		}
		var got []stamp
		for i, d := range delaysRaw {
			i, at := i, Time(d%97)
			e.At(at, func() { got = append(got, stamp{e.Now(), i}) })
		}
		e.Run()
		if len(got) != len(delaysRaw) {
			return false
		}
		want := make([]stamp, len(got))
		copy(want, got)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Times must be non-decreasing.
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		rng := rand.New(rand.NewSource(42))
		var out []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			out = append(out, e.Now())
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				d := Time(rng.Intn(20))
				e.After(d, func() { spawn(depth - 1) })
			}
		}
		e.At(0, func() { spawn(4) })
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs dispatched %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := Time(20_000_000).Seconds(); got != 1.0 {
		t.Fatalf("20M cycles = %v s, want 1.0", got)
	}
	if got := Time(20).Micros(); got != 1.0 {
		t.Fatalf("20 cycles = %v us, want 1.0", got)
	}
}

func TestResourceFIFO(t *testing.T) {
	var r Resource
	if got := r.Acquire(10, 2); got != 12 {
		t.Fatalf("first acquire done at %d, want 12", got)
	}
	if got := r.Acquire(10, 2); got != 14 {
		t.Fatalf("queued acquire done at %d, want 14", got)
	}
	if got := r.Acquire(100, 5); got != 105 {
		t.Fatalf("idle acquire done at %d, want 105", got)
	}
	if r.Busy != 9 || r.Jobs != 3 {
		t.Fatalf("busy=%d jobs=%d, want 9, 3", r.Busy, r.Jobs)
	}
}

func TestResourceIdleAndUtilization(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)
	if r.IdleAt(5) {
		t.Fatal("resource idle at 5 during a [0,10) reservation")
	}
	if !r.IdleAt(10) {
		t.Fatal("resource busy at 10 after reservation ended")
	}
	if got := r.Utilization(20); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if got := r.Utilization(0); got != 0 {
		t.Fatalf("utilization over empty horizon = %v, want 0", got)
	}
}

func TestResourceMonotonicGrants(t *testing.T) {
	// Property: grant completion times are non-decreasing when request
	// times are non-decreasing (FIFO server).
	check := func(durs []uint8) bool {
		var r Resource
		now, prev := Time(0), Time(0)
		for i, d := range durs {
			now += Time(i % 3)
			done := r.Acquire(now, Time(d%16))
			if done < prev || done < now {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s with negative delay did not panic", name)
			}
			if msg, ok := r.(string); !ok || msg != want {
				t.Fatalf("%s panicked with %v, want %q", name, r, want)
			}
		}()
		fn()
	}
	e := NewEngine()
	mustPanic("After", "sim: After called with negative delay",
		func() { e.After(-1, func() {}) })
	mustPanic("AfterHandler", "sim: AfterHandler called with negative delay",
		func() { e.AfterHandler(-1, runFunc, EventArg{Ptr: func() {}}) })
}

// recordH appends its integer payload to a shared slice — the test
// double for a hot component on the handler lane.
type recordH struct{ out *[]int64 }

func (h recordH) OnEvent(arg EventArg) { *h.out = append(*h.out, arg.N) }

func TestEngineHandlerLaneOrdering(t *testing.T) {
	// The closure and handler lanes share one ordering domain: same-cycle
	// events dispatch in insertion order no matter which API scheduled
	// them.
	e := NewEngine()
	var got []int64
	h := recordH{&got}
	e.AtHandler(5, h, EventArg{N: 0})
	e.At(5, func() { got = append(got, 1) })
	e.AtHandler(5, h, EventArg{N: 2})
	e.After(5, func() { got = append(got, 3) })
	e.AtHandler(3, h, EventArg{N: 10})
	e.Run()
	want := []int64{10, 0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
}

func TestEngineRingHeapBoundary(t *testing.T) {
	// Events beyond the near-future window start on the heap; ones pushed
	// later for the same cycle (once the window has advanced) land in the
	// ring. The merge must still dispatch them in insertion order.
	e := NewEngine()
	var got []int64
	h := recordH{&got}
	const far = ringSize + 10
	e.AtHandler(far, h, EventArg{N: 0}) // heap: outside the window at t=0
	e.AtHandler(1, h, EventArg{N: 1})   // ring
	e.At(1, func() {
		e.AtHandler(far, h, EventArg{N: 2}) // ring: window now covers far
		got = append(got, 100)
	})
	e.Run()
	want := []int64{1, 100, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
}

func TestEngineRingHeapRandomized(t *testing.T) {
	// Property: with schedule times spanning the ring window and the heap
	// overflow, on both lanes, dispatch order is sorted by time with
	// same-time ties in insertion order.
	type stamp struct {
		at  Time
		seq int
	}
	check := func(delaysRaw []uint16, lanes []bool) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		e := NewEngine()
		var got []stamp
		rec := func(i int) { got = append(got, stamp{e.Now(), i}) }
		for i, d := range delaysRaw {
			at := Time(d) % (3 * ringSize)
			if i < len(lanes) && lanes[i] {
				i := i
				e.AtHandler(at, runFunc, EventArg{Ptr: func() { rec(i) }})
			} else {
				i := i
				e.At(at, func() { rec(i) })
			}
		}
		e.Run()
		if len(got) != len(delaysRaw) {
			return false
		}
		want := make([]stamp, len(got))
		copy(want, got)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%64), func() {})
		if e.Pending() > 1024 {
			e.RunUntil(e.Now() + 16)
		}
	}
	e.Run()
}

// nopH is the cheapest possible handler, isolating scheduler cost.
type nopH struct{}

func (nopH) OnEvent(EventArg) {}

// BenchmarkEngineHandlerLane is the allocs/event gate for the handler
// fast lane: steady-state near-future scheduling must report 0 allocs/op
// (the seed's closure-per-event heap allocated on every push).
func BenchmarkEngineHandlerLane(b *testing.B) {
	e := NewEngine()
	var h nopH
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterHandler(Time(i%64), h, EventArg{N: int64(i)})
		if e.Pending() > 1024 {
			e.RunUntil(e.Now() + 16)
		}
	}
	e.Run()
}

// BenchmarkEngineFarFuture exercises the heap overflow path: every event
// is scheduled past the ring window.
func BenchmarkEngineFarFuture(b *testing.B) {
	e := NewEngine()
	var h nopH
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterHandler(ringSize+Time(i%64), h, EventArg{N: int64(i)})
		if e.Pending() > 1024 {
			e.RunUntil(e.Now() + ringSize + 64)
		}
	}
	e.Run()
}

// TestWindowedDriverZeroAlloc guards the windowed single-engine driver
// (RunUntil in fixed windows, the labd serving pattern): steady-state
// scheduling and dispatch must not allocate.
func TestWindowedDriverZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &selfTickH{e: e}
	for i := 0; i < 8; i++ {
		e.AtHandler(Time(i), h, EventArg{N: 1 << 40})
	}
	deadline := Time(0)
	// Warm up ring buckets.
	deadline += 4096
	e.RunUntil(deadline)
	allocs := testing.AllocsPerRun(16, func() {
		deadline += 1024
		e.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Fatalf("windowed driver allocated %.1f per window, want 0", allocs)
	}
}

type selfTickH struct{ e *Engine }

func (h *selfTickH) OnEvent(arg EventArg) {
	if arg.N > 0 {
		h.e.AtHandler(h.e.Now()+1, h, EventArg{N: arg.N - 1})
	}
}

// BenchmarkWindowedDriver is the 0 allocs/op guard in benchmark form.
func BenchmarkWindowedDriver(b *testing.B) {
	e := NewEngine()
	h := &selfTickH{e: e}
	for i := 0; i < 8; i++ {
		e.AtHandler(Time(i), h, EventArg{N: 1 << 60})
	}
	deadline := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deadline += 128
		e.RunUntil(deadline)
	}
}
