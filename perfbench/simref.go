package main

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

const (
	// simRefProcs is the number of coroutines in one reference
	// simulation, as many as the processors of a P=64 panel point.
	simRefProcs = 64
	// simRefEvents is the events per simulation of one figures burst,
	// about 0.3 s on a 2-vCPU host.
	simRefEvents = 200_000
)

// refEvent is one pending resume of a reference coroutine.
type refEvent struct {
	at   uint64
	proc int
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].proc < q[j].proc
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// simRef is the simulator reference: a small discrete-event simulation
// built from the standard library alone, in the style of the
// repository's engine — coroutine goroutines that a central loop
// resumes in timestamp order from a binary heap, each resume a channel
// handoff, each step some integer and floating-point work. It shares
// the host and the Go runtime with the simulator but none of its code,
// so its speed moves with the host and never with a change to the
// program. It returns a checksum of the run, which is the same for the
// same events and seed.
func simRef(events int, seed uint64) uint64 {
	resume := make([]chan uint64, simRefProcs)
	delays := make(chan uint64)
	var wg sync.WaitGroup
	for p := range resume {
		resume[p] = make(chan uint64)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			x := seed ^ uint64(p+1)*0x9e3779b97f4a7c15
			f := float64(p + 1)
			for t := range resume[p] {
				for range 24 {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					f = f*0.999 + float64(x>>40)*1e-7
				}
				delays <- 1 + (x+t)%97 + uint64(f)%3
			}
		}(p)
	}
	q := make(refQueue, 0, simRefProcs)
	for p := range simRefProcs {
		heap.Push(&q, refEvent{at: uint64(p), proc: p})
	}
	var sum uint64
	for range events {
		e := heap.Pop(&q).(refEvent)
		resume[e.proc] <- e.at
		d := <-delays
		sum += d * uint64(e.proc+1)
		heap.Push(&q, refEvent{at: e.at + d, proc: e.proc})
	}
	for _, c := range resume {
		close(c)
	}
	wg.Wait()
	return sum
}

// simClock times simRef bursts: one reference simulation of events
// events per worker, all at once, as a panel or a serving lab runs its
// points.
type simClock struct {
	refClock
	workers, events int
	sum             uint64 // the first burst's checksum
}

func newSimClock(workers, events int) *simClock {
	return &simClock{
		refClock: refClock{nominal: float64(events) * simRefNominalUS / 1000},
		workers:  workers, events: events,
	}
}

// burst runs and times one burst. Every burst computes the same
// simulations, so a checksum unlike the first burst's is an error.
func (c *simClock) burst() error {
	sums := make([]uint64, c.workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[w] = simRef(c.events, uint64(w+1))
		}()
	}
	wg.Wait()
	c.add(msf(time.Since(t0)))
	var total uint64
	for _, s := range sums {
		total += s
	}
	if c.sum == 0 {
		c.sum = total
	}
	if total != c.sum {
		return fmt.Errorf("simulator reference checksum %x, first burst %x", total, c.sum)
	}
	return nil
}
