package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// op is one request the load generator can send: its path, body, and
// class (which latency series it is reported under).
type op struct {
	path  string
	body  []byte
	class int
}

// arrival is one scheduled send: when it is due, relative to the
// schedule's start, and which op it sends.
type arrival struct {
	at time.Duration
	op int
}

// sample is the outcome of one sent request. Latency runs from the
// request's due time, not from when it was actually sent, so a stall
// charges its wait to every request that queued behind it.
type sample struct {
	lat  time.Duration // completion - due
	late time.Duration // send - due: how far behind the generator ran
	ok   bool
}

// poisson draws a seeded Poisson arrival schedule at rate requests per
// second over dur, picking each arrival's op with pick.
func poisson(rng *rand.Rand, rate float64, dur time.Duration, pick func(*rand.Rand) int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * 1e9)
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, op: pick(rng)})
	}
}

// openLoop sends every arrival at its due time through a fixed set of
// senders, each of which holds at most one request in flight; when all
// are busy, due requests wait, and that wait counts in their latency.
// do performs one request and reports whether its response was correct.
// Samples come back in schedule order.
func openLoop(arrivals []arrival, senders int, do func(op int) bool) []sample {
	out := make([]sample, len(arrivals))
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				due := start.Add(arrivals[i].at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ok := do(arrivals[i].op)
				out[i] = sample{lat: time.Since(due), late: sent.Sub(due), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, until stop passes or limit requests (if
// limit >= 0) were issued. do performs request i (a sequence number, so
// no request repeats) and reports whether it succeeded. It returns the
// latency and outcome of every issued request, indexed by sequence
// number.
func closedLoop(clients int, stop time.Time, limit int, do func(i int) bool) (lat []time.Duration, ok []bool) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				if limit >= 0 && next >= limit {
					mu.Unlock()
					return
				}
				i := next
				next++
				lat = append(lat, 0)
				ok = append(ok, false)
				mu.Unlock()
				t0 := time.Now()
				good := do(i)
				d := time.Since(t0)
				mu.Lock()
				lat[i], ok[i] = d, good
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, ok
}

// backlogGrew reports whether a probe's queue grew over its window: the
// median latency of its last quarter exceeds that of its first quarter
// by more than slack. A stable queue drains between bursts, so the two
// quarters match; a saturated one gets steadily later.
func backlogGrew(samples []sample, slack time.Duration) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	first := make([]float64, q)
	last := make([]float64, q)
	for i := 0; i < q; i++ {
		first[i] = float64(samples[i].lat)
		last[i] = float64(samples[len(samples)-q+i].lat)
	}
	return median(last)-median(first) > float64(slack)
}

// newHTTPClient returns a client whose transport keeps at most conns
// connections in all, open or idle, so every sender shares one bounded
// pool.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one JSON POST and returns the status and the whole body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	res, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("reading %s: %w", url, err)
	}
	return res.StatusCode, b, nil
}
