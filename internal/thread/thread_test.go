package thread

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emx/internal/packet"
)

func pkt(seq uint64) *packet.Packet {
	return &packet.Packet{Kind: packet.KindInvoke, Seq: seq}
}

func TestQueueFIFOWithinPriority(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Push(Low, pkt(uint64(i)))
	}
	for i := 0; i < 5; i++ {
		p, ok := q.Pop()
		if !ok || p.Seq != uint64(i) {
			t.Fatalf("pop %d: got seq=%d ok=%v", i, p.Seq, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueHighBeforeLow(t *testing.T) {
	var q Queue
	q.Push(Low, pkt(1))
	q.Push(High, pkt(2))
	q.Push(Low, pkt(3))
	q.Push(High, pkt(4))
	want := []uint64{2, 4, 1, 3}
	for i, w := range want {
		p, ok := q.Pop()
		if !ok || p.Seq != w {
			t.Fatalf("pop %d = %d, want %d", i, p.Seq, w)
		}
	}
}

func TestQueueSpillAndRestore(t *testing.T) {
	var q Queue
	n := OnChipCap + 5
	for i := 0; i < n; i++ {
		spilled := q.Push(Low, pkt(uint64(i)))
		if want := i >= OnChipCap; spilled != want {
			t.Fatalf("push %d: spilled=%v, want %v", i, spilled, want)
		}
	}
	if q.Len() != n {
		t.Fatalf("len = %d, want %d", q.Len(), n)
	}
	for i := 0; i < n; i++ {
		p, ok := q.Pop()
		if !ok || p.Seq != uint64(i) {
			t.Fatalf("pop %d out of order: %d", i, p.Seq)
		}
	}
	if q.Restored != 5 {
		t.Fatalf("restored = %d, want 5", q.Restored)
	}
}

func TestQueueSpillKeepsOrderAfterPartialDrain(t *testing.T) {
	var q Queue
	// Fill beyond capacity, drain a little, push more, then drain all:
	// order must remain global FIFO per priority.
	seq := uint64(0)
	var want []uint64
	push := func(k int) {
		for i := 0; i < k; i++ {
			q.Push(Low, pkt(seq))
			want = append(want, seq)
			seq++
		}
	}
	var got []uint64
	pop := func(k int) {
		for i := 0; i < k; i++ {
			p, ok := q.Pop()
			if !ok {
				t.Fatal("unexpected empty queue")
			}
			got = append(got, p.Seq)
		}
	}
	push(12)
	pop(3)
	push(7)
	pop(16)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %v", i, got)
		}
	}
	if !q.Empty() {
		t.Fatalf("queue not empty: %d left", q.Len())
	}
}

func TestQueueSpillBothPriorities(t *testing.T) {
	var q Queue
	// Overflow both on-chip FIFOs at once: dispatch must still drain all
	// of High before any of Low, FIFO within each priority, and every
	// spilled packet must round-trip through the restore path.
	n := OnChipCap + 6
	var spills uint64
	for i := 0; i < n; i++ {
		if q.Push(High, pkt(uint64(1000+i))) {
			spills++
		}
		if q.Push(Low, pkt(uint64(2000+i))) {
			spills++
		}
	}
	if want := uint64(2 * (n - OnChipCap)); spills != want {
		t.Fatalf("spilled = %d, want %d", spills, want)
	}
	var got []uint64
	for {
		p, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, p.Seq)
	}
	if len(got) != 2*n {
		t.Fatalf("popped %d packets, want %d", len(got), 2*n)
	}
	for i := 0; i < n; i++ {
		if got[i] != uint64(1000+i) {
			t.Fatalf("high pop %d = %d, want %d (high must drain first, in order)", i, got[i], 1000+i)
		}
		if got[n+i] != uint64(2000+i) {
			t.Fatalf("low pop %d = %d, want %d", i, got[n+i], 2000+i)
		}
	}
	if q.Restored != spills {
		t.Fatalf("restored = %d, want %d (every spill restored)", q.Restored, spills)
	}
}

// checkQueueModel runs push and pop bursts against a Queue and a model
// of one FIFO per priority. Each op is a burst of up to 15 pushes (even
// op) or pops (odd op), long enough to wrap the on-chip rings and to
// spill and drain repeatedly; prios picks the priority of each push.
// Every pop must return the model's next packet (High before Low), Len
// must match the model, a level's spill buffer may hold packets only
// while its on-chip FIFO is full (so Pop never has to serve the spill
// buffer itself), and a final drain must restore every spill.
func checkQueueModel(ops []uint8, prios []bool) bool {
	var q Queue
	var model [nPrio][]uint64
	var seq, spills uint64
	pop := func() bool {
		want := Low
		if len(model[High]) > 0 {
			want = High
		}
		got, ok := q.Pop()
		if len(model[want]) == 0 {
			return !ok
		}
		if !ok || got.Seq != model[want][0] {
			return false
		}
		model[want] = model[want][1:]
		return true
	}
	spillOnlyWhenFull := func() bool {
		for p := Prio(0); p < nPrio; p++ {
			if q.spill[p].len() > 0 && q.onchip[p].n < OnChipCap {
				return false
			}
		}
		return true
	}
	for _, op := range ops {
		for k := 0; k < int(op>>1)%16; k++ {
			if op&1 == 1 {
				if !pop() {
					return false
				}
				continue
			}
			p := Low
			if seq < uint64(len(prios)) && prios[seq] {
				p = High
			}
			if q.Push(p, pkt(seq)) {
				spills++
			}
			model[p] = append(model[p], seq)
			seq++
			if !spillOnlyWhenFull() {
				return false
			}
		}
		if q.Len() != len(model[High])+len(model[Low]) || !spillOnlyWhenFull() {
			return false
		}
	}
	for q.Len() > 0 {
		if !pop() || !spillOnlyWhenFull() {
			return false
		}
	}
	return len(model[High])+len(model[Low]) == 0 && q.Restored == spills
}

func TestQueueFIFOProperty(t *testing.T) {
	// Deterministic spill/drain cycles past on-chip wraparound: push 15,
	// pop 5, push 7, pop everything, five times over.
	var cycles []uint8
	for i := 0; i < 5; i++ {
		cycles = append(cycles, 15<<1, 5<<1|1, 7<<1, 15<<1|1, 15<<1|1)
	}
	if !checkQueueModel(cycles, nil) {
		t.Fatal("spill/drain cycles broke FIFO order")
	}
	// Property: for arbitrary push/pop interleavings over both
	// priorities, pops observe push order within a priority.
	if err := quick.Check(checkQueueModel, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(198))}); err != nil {
		t.Fatal(err)
	}
}

// TestQueuePushPopDoesNotAllocate pins a steady-state queue at zero
// allocations: the on-chip rings are fixed arrays, and the spill buffer
// reuses its array once it has grown to the peak backlog.
func TestQueuePushPopDoesNotAllocate(t *testing.T) {
	var q Queue
	pkts := make([]*packet.Packet, 3*OnChipCap)
	for i := range pkts {
		pkts[i] = pkt(uint64(i))
	}
	cycle := func() {
		for i, p := range pkts {
			q.Push(Prio(i%2), p)
			if i%3 == 0 {
				q.Pop()
			}
		}
		for !q.Empty() {
			q.Pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%.1f allocs per push/pop cycle, want 0", allocs)
	}
}

// BenchmarkQueuePushPop measures one push and one pop on a queue
// holding a spilled backlog.
func BenchmarkQueuePushPop(b *testing.B) {
	var q Queue
	p := pkt(0)
	for i := 0; i < 2*OnChipCap; i++ {
		q.Push(Low, p)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(Low, p)
		q.Pop()
	}
}
