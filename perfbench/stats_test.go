package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestSummarizeExactOrderStatistics(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1, unsorted input
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500.5 || s.Tail != 990 || s.TailQ != 0.99 {
		t.Fatalf("summarize(1..1000) = %+v, want N=1000 P50=500.5 Tail=990 TailQ=0.99", s)
	}
	if xs[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
}

// The tail is always one of the samples, never a value interpolated
// between histogram buckets: a bimodal set whose p99 falls inside the
// low mode reports that mode's value exactly.
func TestSummarizeNeverInterpolates(t *testing.T) {
	xs := make([]float64, 0, 2000)
	for i := 0; i < 1985; i++ {
		xs = append(xs, 1)
	}
	for i := 0; i < 15; i++ {
		xs = append(xs, 40250)
	}
	if s := summarize(xs); s.Tail != 1 || s.P50 != 1 {
		t.Fatalf("bimodal tail = %+v, want exactly 1", s)
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, 40250) // 25 of 2010 now above p99
	}
	if s := summarize(xs); s.Tail != 40250 {
		t.Fatalf("bimodal tail with 25 slow = %+v, want 40250", s)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 11, 12, 50, 100, 999, 1000, 1001, 5000} {
		k := tailRank(n)
		beyond := n - 1 - k
		switch {
		case n <= minBeyond:
			if k != n-1 {
				t.Errorf("n=%d: tail rank %d, want the maximum %d", n, k, n-1)
			}
		case beyond < minBeyond:
			t.Errorf("n=%d: tail rank %d leaves %d samples beyond, want >= %d", n, k, beyond, minBeyond)
		case n >= 1000 && k != int(math.Ceil(0.99*float64(n)))-1:
			t.Errorf("n=%d: tail rank %d, want nearest-rank p99", n, k)
		case n < 1000 && beyond != minBeyond:
			t.Errorf("n=%d: tail rank %d leaves %d beyond, want exactly %d (highest such percentile)", n, k, beyond, minBeyond)
		}
	}
	if s := summarize(nil); s.N != 0 {
		t.Fatalf("summarize(nil) = %+v", s)
	}
}

func TestSearchMaxRateStepFunction(t *testing.T) {
	for _, knee := range []float64{150, 700, 999, 1000, 1234, 3000, 9999} {
		best, probes := searchMaxRate(1000, 62.5, 0.05, 20, func(r float64) bool { return r <= knee })
		if best > knee || best < knee/1.05 {
			t.Errorf("knee %g: found %g (%d probes), want within 5%% below", knee, best, probes)
		}
	}
	if best, _ := searchMaxRate(1000, 62.5, 0.05, 20, func(float64) bool { return false }); best != 62.5 {
		t.Errorf("never passing: got %g, want the floor", best)
	}
	if _, probes := searchMaxRate(1000, 62.5, 0.05, 9, func(r float64) bool { return r <= 1e9 }); probes > 9 {
		t.Errorf("always passing: %d probes, want at most 9", probes)
	}
}

// queueProbe simulates an open-loop probe against c FIFO servers with a
// fixed service time: n Poisson arrivals at rate, drawn from one seeded
// exponential sequence scaled by 1/rate, so a higher rate is the same
// arrival pattern compressed and latency grows monotonically with rate.
// Latency runs from each request's due time, as in openLoop.
func queueProbe(rate float64, n, c int, service time.Duration) []sample {
	rng := rand.New(rand.NewSource(7))
	free := make([]float64, c)
	out := make([]sample, n)
	at := 0.0
	for i := range out {
		at += rng.ExpFloat64() / rate
		k := 0
		for j := range free {
			if free[j] < free[k] {
				k = j
			}
		}
		start := math.Max(at, free[k])
		free[k] = start + service.Seconds()
		out[i] = sample{lat: time.Duration((free[k] - at) * 1e9), late: time.Duration((start - at) * 1e9), ok: true}
	}
	return out
}

func TestSearchMaxRateQueueModel(t *testing.T) {
	const service = 800 * time.Microsecond // capacity 2500/s on 2 servers
	pass := func(rate float64) bool {
		smp := queueProbe(rate, 4000, 2, service)
		lat := make([]time.Duration, len(smp))
		for i, s := range smp {
			lat[i] = s.lat
		}
		return summarize(ms(lat)).P50 <= msf(latencyLimit) && !backlogGrew(smp, time.Millisecond)
	}
	// The reference knee: the last passing rate of a fine linear scan.
	knee := 0.0
	for r := 100.0; r < 5000; r *= 1.002 {
		if !pass(r) {
			break
		}
		knee = r
	}
	if knee < 1000 || knee > 2500 {
		t.Fatalf("reference knee %g outside the model's plausible range", knee)
	}
	best, probes := searchMaxRate(500, 62.5, 0.05, 12, pass)
	if !pass(best) || best > knee || best < knee/1.05 {
		t.Fatalf("search found %g in %d probes; knee %g", best, probes, knee)
	}
}

func TestBacklogGrew(t *testing.T) {
	flat := make([]sample, 100)
	growing := make([]sample, 100)
	for i := range flat {
		flat[i].lat = time.Millisecond
		growing[i].lat = time.Duration(i) * 100 * time.Microsecond
	}
	if backlogGrew(flat, time.Millisecond) {
		t.Error("flat latencies read as a growing backlog")
	}
	if !backlogGrew(growing, time.Millisecond) {
		t.Error("steadily later requests not read as a growing backlog")
	}
}

func TestPoissonSchedule(t *testing.T) {
	pick := func(*rand.Rand) int { return 0 }
	a := poisson(rand.New(rand.NewSource(1)), 1000, 10*time.Second, pick)
	b := poisson(rand.New(rand.NewSource(1)), 1000, 10*time.Second, pick)
	if len(a) != len(b) || a[len(a)/2] != b[len(b)/2] {
		t.Fatal("same seed gave different schedules")
	}
	if n := len(a); n < 9700 || n > 10300 {
		t.Fatalf("1000/s for 10s gave %d arrivals", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at || a[i].at >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or range", i, a[i].at)
		}
	}
}

// An open loop times each request from its due time: with one sender
// and requests that each take 10ms but are due 1ms apart, the later
// ones queue, and their latency counts the wait.
func TestOpenLoopCountsQueueing(t *testing.T) {
	arr := make([]arrival, 5)
	for i := range arr {
		arr[i].at = time.Duration(i) * time.Millisecond
	}
	smp := openLoop(arr, 1, func(int) bool { time.Sleep(10 * time.Millisecond); return true })
	if last := smp[4]; last.lat < 45*time.Millisecond || last.late < 35*time.Millisecond {
		t.Fatalf("fifth request: latency %v late %v, want it charged for the queue ahead", last.lat, last.late)
	}
}

func TestClosedLoopLimit(t *testing.T) {
	lat, ok := closedLoop(2, time.Now().Add(time.Minute), 7, func(i int) bool { return i%2 == 0 })
	if len(lat) != 7 || len(ok) != 7 || !ok[0] || ok[1] {
		t.Fatalf("closedLoop limit 7: %d latencies, ok=%v", len(lat), ok)
	}
}
