package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"emx/internal/harness"
	"emx/internal/labd/service"
	"emx/internal/metrics"
	"emx/internal/ring"
)

const (
	latencyLimit = 5 * time.Millisecond // the median a served rate must meet
	hitRate      = 500.0                // offered load of the fixed-rate phase, req/s
	hitPoints    = 240                  // distinct /v1/run points warmed for serve-hit
	maxProbes    = 9                    // rate-search probes per run
	simUnit      = 256                  // serve-cold points whose simulator counts are reported
	hitBurst     = 1000                 // requests per tracing-overhead burst, serve-hit
	coldBurst    = 100                  // requests per tracing-overhead burst, serve-cold

	hitWindow     = time.Second     // measured serve-hit window between two reference bursts
	coldWindow    = 2 * time.Second // measured serve-cold window between two reference bursts
	fillChunk     = 128             // fills between two reference bursts
	coldSimEvents = 100_000         // simRef events per simulation of a serve-cold burst
)

var (
	serveWorkloads = []string{"bitonic", "fft", "spmv"}
	servePs        = []int{4, 8, 16}
	serveHs        = []int{1, 2, 4, 8}
	hitPanels      = []string{"6a", "7a"}
)

// Op classes: the primary and secondary latency series of a workload.
const (
	primary = iota
	secondary
)

// runRequest draws the /v1/run request for one small point. Paper sizes
// are powers of two that the serving scale divides down to each
// workload's minimum grid (bitonic and FFT need power-of-two N, SpMV N
// divisible by P).
func runRequest(rng *rand.Rand, runSeed int64) service.RunRequest {
	w := serveWorkloads[rng.Intn(len(serveWorkloads))]
	n := harness.M
	if w == "spmv" {
		n = 64 * harness.M
	}
	return service.RunRequest{
		Workload: w,
		P:        servePs[rng.Intn(len(servePs))],
		H:        serveHs[rng.Intn(len(serveHs))],
		N:        n,
		Scale:    serveScale,
		Seed:     runSeed,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return b
}

var sourceKey = []byte(`"source": "`)

// splitSource cuts a response body around its volatile source value.
func splitSource(b []byte) (head, tail []byte) {
	i := bytes.Index(b, sourceKey)
	if i < 0 {
		return b, nil
	}
	j := i + len(sourceKey)
	k := bytes.IndexByte(b[j:], '"')
	if k < 0 {
		return b, nil
	}
	return b[:j], b[j+k:]
}

// equalIgnoringSource compares two bodies byte for byte except for the
// value of their source field.
func equalIgnoringSource(a, b []byte) bool {
	ah, at := splitSource(a)
	bh, bt := splitSource(b)
	return bytes.Equal(ah, bh) && bytes.Equal(at, bt)
}

// sourceOf returns a body's source value, or "" when it has none.
func sourceOf(b []byte) string {
	h, t := splitSource(b)
	if t == nil {
		return ""
	}
	return string(b[len(h) : len(b)-len(t)])
}

// hitSetup is a warmed lab and the ops its hit traffic draws from, with
// the body each op answered during warm-up.
type hitSetup struct {
	lab  *lab
	ops  []op
	want [][]byte
}

// warmHitLab starts a lab and warms its caches: hitPoints distinct
// small points and the hitPanels figures, each sent once through the
// gateway. It then waits for replication to settle, so the timed phase
// pushes nothing.
func warmHitLab(b *bench) (*hitSetup, error) {
	l, err := startLab(b.seed, b.traced, hitCache)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	hs := &hitSetup{lab: l}
	for i := 0; i < hitPoints; i++ {
		req := runRequest(rng, b.seed<<20+int64(i)+1)
		hs.ops = append(hs.ops, op{path: "/v1/run", body: mustJSON(req), class: primary})
	}
	for _, fig := range hitPanels {
		req := service.FigureRequest{Fig: fig, Scale: serveScale, Seed: b.seed}
		hs.ops = append(hs.ops, op{path: "/v1/figure", body: mustJSON(req), class: secondary})
	}
	hs.want = make([][]byte, len(hs.ops))
	client := newHTTPClient(runtime.NumCPU())
	defer client.CloseIdleConnections()
	_, oks := closedLoop(runtime.NumCPU(), time.Now().Add(time.Minute), len(hs.ops), func(i int) bool {
		status, body, err := post(client, l.gwURL+hs.ops[i].path, hs.ops[i].body)
		hs.want[i] = body
		return err == nil && status == http.StatusOK
	})
	for i, ok := range oks {
		if !ok {
			l.close()
			return nil, fmt.Errorf("warming %s %s failed: %s", hs.ops[i].path, hs.ops[i].body, hs.want[i])
		}
	}
	if len(oks) != len(hs.ops) {
		l.close()
		return nil, fmt.Errorf("warm-up sent %d of %d requests", len(oks), len(hs.ops))
	}
	if err := l.flush(); err != nil {
		l.close()
		return nil, err
	}
	return hs, nil
}

// pickHit draws one hit op: nine /v1/run for each /v1/figure.
func (hs *hitSetup) pickHit(rng *rand.Rand) int {
	if rng.Intn(10) == 0 {
		return hitPoints + rng.Intn(len(hitPanels))
	}
	return rng.Intn(hitPoints)
}

func runServeHit(b *bench) error {
	rep := b.rep
	hs, err := setUp(b, func() (*hitSetup, error) { return warmHitLab(b) }, func(hs *hitSetup) { hs.lab.close() })
	if err != nil {
		return err
	}
	defer hs.lab.close()
	senders := runtime.NumCPU()
	client := newHTTPClient(senders)
	defer client.CloseIdleConnections()
	var mu sync.Mutex
	// do sends one hit and checks its body against the warm-up answer.
	do := func(i int) bool {
		o := hs.ops[i]
		status, body, err := post(client, hs.lab.gwURL+o.path, o.body)
		ok := err == nil && status == http.StatusOK && equalIgnoringSource(body, hs.want[i])
		mu.Lock()
		rep.op(ok, "hit %s %s: status %d err %v", o.path, o.body, status, err)
		mu.Unlock()
		return ok
	}
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))

	// fixed runs the 500 req/s phase and reports its two latency series.
	fixed := func(dur time.Duration) []sample {
		arr := poisson(rng, hitRate, dur, hs.pickHit)
		smp := openLoop(arr, senders, do)
		var pri, sec []time.Duration
		for i, s := range smp {
			if hs.ops[arr[i].op].class == primary {
				pri = append(pri, s.lat)
			} else {
				sec = append(sec, s.lat)
			}
		}
		rep.timing("primary", summarize(ms(pri)))
		rep.timing("secondary", summarize(ms(sec)))
		return smp
	}

	if b.traced {
		burst := func(n int) {
			arr := make([]arrival, n) // all due at once: a closed loop
			for i := range arr {
				arr[i].op = hs.pickHit(rng)
			}
			openLoop(arr, senders, do)
		}
		err := traceServe(b, hs.lab, hitBurst, burst, func() (int, int, error) {
			smp := fixed(b.seconds * 3 / 5)
			lateness(rep, smp)
			return len(smp), 0, nil
		})
		if err != nil {
			return err
		}
		simCounts{}.set(rep)
		hs.lab.tracing(false)
		rep.set("gen.knee_rps", searchKnee(rep, rng, b.seconds*2/5, hs.pickHit, senders, do))
		return nil
	}

	// Saturation: nproc clients back to back. Their latencies are the
	// end-to-end medians and their rate the highest the connection pool
	// sustains without a backlog. (The open loop at hitRate is the traced
	// run's: over ten runs its median's quartile spread was 26% of the
	// median, from host scheduling noise, against 13% for the saturation
	// rate.) The loop runs in windows, with an HTTP reference burst
	// before each.
	ref, err := startHTTPRef(senders)
	if err != nil {
		return err
	}
	defer ref.close()
	clk := &refClock{nominal: httpRefNominalMS}
	if err := ref.burst(clk, senders); err != nil { // warm-up, not counted
		return err
	}
	clk.times = nil
	seq := make([]int, 1<<16)
	for i := range seq {
		seq[i] = hs.pickHit(rng)
	}
	var (
		pri, sec []time.Duration
		wall     time.Duration
		sent     int
	)
	err = interleave(time.Now().Add(b.seconds), hitWindow, func() error { return ref.burst(clk, senders) }, func(end time.Time) {
		base, t0 := sent, time.Now()
		lat, oks := closedLoop(senders, end, -1, func(i int) bool { return do(seq[(base+i)%len(seq)]) })
		wall += time.Since(t0)
		sent += len(lat)
		for i, ok := range oks {
			switch {
			case !ok:
			case hs.ops[seq[(base+i)%len(seq)]].class == primary:
				pri = append(pri, lat[i])
			default:
				sec = append(sec, lat[i])
			}
		}
	})
	if err != nil {
		return err
	}
	rep.timing("primary", summarize(ms(pri)))
	rep.timing("secondary", summarize(ms(sec)))
	rep.set("throughput_per_s", float64(len(pri)+len(sec))/wall.Seconds())
	rep.atRefSpeed(clk.factor(), "primary_ms", "secondary_ms", "throughput_per_s")
	rep.detail["ref_ms"] = clk.times
	return nil
}

// searchKnee finds the open-loop saturation knee of hit traffic within
// dur: the highest offered rate whose median latency stays within
// latencyLimit without a growing backlog, to within 5% (searchMaxRate).
// Every probe is recorded in the detail block.
func searchKnee(rep *report, rng *rand.Rand, dur time.Duration, pick func(*rand.Rand) int, senders int, do func(int) bool) float64 {
	probeDur := dur / maxProbes
	var probes []map[string]any
	best, _ := searchMaxRate(2*hitRate, hitRate/8, 0.05, maxProbes, func(rate float64) bool {
		time.Sleep(50 * time.Millisecond) // let the previous probe's stragglers drain
		smp := openLoop(poisson(rng, rate, probeDur, pick), senders, do)
		lat := make([]time.Duration, len(smp))
		allOK := true
		for i, s := range smp {
			lat[i] = s.lat
			allOK = allOK && s.ok
		}
		sm := summarize(ms(lat))
		grew := backlogGrew(smp, latencyLimit)
		pass := allOK && sm.N > 0 && sm.P50 <= msf(latencyLimit) && !grew
		probes = append(probes, map[string]any{
			"rate": rate, "n": sm.N, "p50_ms": sm.P50, "tail_ms": sm.Tail, "tail_q": sm.TailQ,
			"backlog_grew": grew, "pass": pass,
		})
		return pass
	})
	rep.detail["rate_probes"] = probes
	return best
}

// lateness reports how far behind its schedule the generator sent.
func lateness(rep *report, smp []sample) {
	late := make([]float64, len(smp))
	mx := 0.0
	for i, s := range smp {
		late[i] = msf(s.late)
		if late[i] > mx {
			mx = late[i]
		}
	}
	rep.set("gen.late_p99_ms", summarize(late).Tail)
	rep.set("gen.late_max_ms", mx)
}

// setUp builds a workload's set-up state and reports its median build
// time as setup_s, keeping the last build. An untraced run builds it at
// least three times, and up to 25 while the builds total under a
// second, so a cheap set-up still has a steady median; a traced run
// builds it once.
func setUp[T any](b *bench, build func() (T, error), discard func(T)) (T, error) {
	var (
		v     T
		err   error
		times []float64
		total float64
	)
	for i := 0; i < 1 || !b.traced && i < 25 && (i < 3 || total < 1); i++ {
		if i > 0 {
			discard(v)
		}
		t0 := time.Now()
		v, err = build()
		if err != nil {
			return v, err
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[i]
	}
	b.rep.set("setup_s", median(times))
	b.rep.detail["setup_s.samples"] = times
	return v, nil
}

// coldRequest derives serve-cold request i: a pure function of the seed
// and i, with a run seed unique to i, so no request ever repeats.
func coldRequest(seed int64, i int) service.RunRequest {
	rng := rand.New(rand.NewSource(seed<<32 ^ int64(i)))
	return runRequest(rng, seed<<32+int64(i)+1)
}

// coldResult is one completed cold request.
type coldResult struct {
	req  service.RunRequest
	key  string
	body []byte
}

// coldLab drives serve-cold traffic against a lab and keeps every
// completed point for the fill phase and the final check.
type coldLab struct {
	b       *bench
	l       *lab
	members *ring.Ring
	client  *http.Client
	senders int

	mu      sync.Mutex
	results map[int]coldResult
	next    int // first request index not yet used
}

// cold sends request i through the gateway; it must execute.
func (c *coldLab) cold(i int) bool {
	req := coldRequest(c.b.seed, i)
	ps, scale, err := service.ResolveRun(req, serveScale, c.b.seed)
	var (
		status int
		body   []byte
	)
	if err == nil {
		status, body, err = post(c.client, c.l.gwURL+"/v1/run", mustJSON(req))
	}
	ok := err == nil && status == http.StatusOK && sourceOf(body) == "executed"
	c.mu.Lock()
	defer c.mu.Unlock()
	c.b.rep.op(ok, "cold %+v: status %d source %q err %v", req, status, sourceOf(body), err)
	if ok {
		c.results[i] = coldResult{req: req, key: ps.Key(scale), body: body}
	}
	return ok
}

// coldPhase runs the closed loop until stop or limit requests; it
// returns the completed requests' latencies and indices, and its wall
// time.
func (c *coldLab) coldPhase(stop time.Time, limit int) ([]time.Duration, []int, time.Duration) {
	base := c.next
	t0 := time.Now()
	lat, oks := closedLoop(c.senders, stop, limit, func(i int) bool { return c.cold(base + i) })
	wall := time.Since(t0)
	c.next += len(lat)
	var (
		good []time.Duration
		idx  []int
	)
	for i := range lat {
		if oks[i] {
			good = append(good, lat[i])
			idx = append(idx, base+i)
		}
	}
	return good, idx, wall
}

// fillPhase sends each computed point once, until stop, to the node
// outside its replica set; every answer must be a peer fill that
// matches the executed result.
func (c *coldLab) fillPhase(idx []int, stop time.Time) ([]time.Duration, error) {
	if err := c.l.flush(); err != nil {
		return nil, err
	}
	lat, _ := closedLoop(c.senders, stop, len(idx), func(j int) bool {
		c.mu.Lock()
		res := c.results[idx[j]]
		c.mu.Unlock()
		target := outsider(c.members, c.l.urls, res.key)
		status, body, err := post(c.client, target+"/v1/run", mustJSON(res.req))
		ok := err == nil && status == http.StatusOK && sourceOf(body) == "replicated" &&
			equalIgnoringSource(body, res.body)
		c.mu.Lock()
		c.b.rep.op(ok, "fill %s at %s: status %d source %q err %v", res.key, target, status, sourceOf(body), err)
		c.mu.Unlock()
		return ok
	})
	return lat, nil
}

func runServeCold(b *bench) error {
	rep := b.rep
	l, err := setUp(b, func() (*lab, error) { return startLab(b.seed, b.traced, coldCache) }, func(l *lab) { l.close() })
	if err != nil {
		return err
	}
	defer l.close()
	c := &coldLab{
		b: b, l: l, members: ring.New(l.urls),
		client: newHTTPClient(runtime.NumCPU()), senders: runtime.NumCPU(),
		results: map[int]coldResult{},
	}
	defer c.client.CloseIdleConnections()
	coldDur := b.seconds * 2 / 3

	var unit []int // the measured cold points
	// phases is the measured work: the cold loop, then the fill phase.
	phases := func() (ops, distinct int, err error) {
		lat, idx, wall := c.coldPhase(time.Now().Add(coldDur), -1)
		rep.timing("primary", summarize(ms(lat)))
		rep.set("throughput_per_s", float64(len(idx))/wall.Seconds())
		fills, err := c.fillPhase(fillSet(idx), time.Now().Add(b.seconds-coldDur))
		rep.timing("secondary", summarize(ms(fills)))
		unit = idx
		return len(idx) + len(fills), len(idx), err
	}
	if !b.traced {
		if err := c.measure(coldDur, b.seconds-coldDur); err != nil {
			return err
		}
		c.check(nil)
		return nil
	}
	if err := traceServe(b, l, coldBurst, func(n int) { c.coldPhase(time.Now().Add(time.Minute), n) }, phases); err != nil {
		return err
	}
	rep.set("gen.late_p99_ms", 0) // closed loops: nothing is scheduled
	rep.set("gen.late_max_ms", 0)
	rep.set("gen.knee_rps", 0)
	if len(unit) > simUnit {
		unit = unit[:simUnit]
	}
	c.check(unit).set(rep)
	return nil
}

// measure is the untraced run's measured work: the cold loop in windows
// with a simulator-reference burst before each (cold points are mostly
// simulation), then the fill phase in chunks with an HTTP-reference
// burst before each (fills are mostly HTTP). Each phase's timings are
// scaled by its own reference.
func (c *coldLab) measure(coldDur, fillDur time.Duration) error {
	rep := c.b.rep
	sim := newSimClock(c.senders, coldSimEvents)
	if err := sim.burst(); err != nil { // warm-up, not counted
		return err
	}
	sim.times = nil
	var (
		lat  []time.Duration
		idx  []int
		wall time.Duration
	)
	burst := func() error {
		if err := c.l.flush(); err != nil { // let the last window's pushes finish first
			return err
		}
		return sim.burst()
	}
	err := interleave(time.Now().Add(coldDur), coldWindow, burst, func(end time.Time) {
		l, i, w := c.coldPhase(end, -1)
		lat, idx, wall = append(lat, l...), append(idx, i...), wall+w
	})
	if err != nil {
		return err
	}
	rep.timing("primary", summarize(ms(lat)))
	rep.set("throughput_per_s", float64(len(idx))/wall.Seconds())
	rep.atRefSpeed(sim.factor(), "primary_ms", "throughput_per_s")
	rep.detail["ref_ms.sim"] = sim.times

	ref, err := startHTTPRef(c.senders)
	if err != nil {
		return err
	}
	defer ref.close()
	clk := &refClock{nominal: httpRefNominalMS}
	if err := ref.burst(clk, c.senders); err != nil { // warm-up, not counted
		return err
	}
	clk.times = nil
	stop := time.Now().Add(fillDur)
	var fills []time.Duration
	idx = fillSet(idx)
	for lo := 0; lo < len(idx) && time.Now().Before(stop); lo += fillChunk {
		if err := ref.burst(clk, c.senders); err != nil {
			return err
		}
		f, err := c.fillPhase(idx[lo:min(lo+fillChunk, len(idx))], stop)
		if err != nil {
			return err
		}
		fills = append(fills, f...)
	}
	rep.timing("secondary", summarize(ms(fills)))
	rep.atRefSpeed(clk.factor(), "secondary_ms")
	rep.detail["ref_ms.http"] = clk.times
	return nil
}

// fillSet is the cold points the fill phase sends: the last coldCache/2.
// Each node holds about two thirds of them as owner or replica, and
// installs the third it fills, so with coldCache entries per node none
// is evicted before its fill.
func fillSet(idx []int) []int {
	return idx[max(0, len(idx)-coldCache/2):]
}

// outsider is the member outside key's replica set: the node the first
// request for key lands on after a ring change.
func outsider(r *ring.Ring, urls []string, key string) string {
	in := map[string]bool{}
	for _, m := range r.ReplicaSet(key, labReplicas) {
		in[m] = true
	}
	for _, u := range urls {
		if !in[u] {
			return u
		}
	}
	return urls[0]
}

// check re-runs every completed cold point in-process with
// harness.RunPoint and compares each served response with the one the
// service builds from that run. It returns the simulator counts of the
// points in unit.
func (c *coldLab) check(unit []int) simCounts {
	c.mu.Lock()
	idx := make([]int, 0, len(c.results))
	for i := range c.results {
		idx = append(idx, i)
	}
	c.mu.Unlock()
	sort.Ints(idx)
	runs := map[int]*metrics.Run{}
	inUnit := map[int]bool{}
	for _, i := range unit {
		inUnit[i] = true
	}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(idx) {
					mu.Unlock()
					return
				}
				i := idx[next]
				next++
				res := c.results[i]
				mu.Unlock()
				run, err := checkCold(res)
				mu.Lock()
				c.b.rep.op(err == nil, "cold %s: %v", res.key, err)
				if inUnit[i] {
					runs[i] = run
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var sc simCounts
	for _, i := range unit {
		if r := runs[i]; r != nil {
			sc.add(r)
		}
	}
	return sc
}

// checkCold compares one served cold response with an in-process run,
// returning the run.
func checkCold(res coldResult) (*metrics.Run, error) {
	ps, scale, err := service.ResolveRun(res.req, serveScale, res.req.Seed)
	if err != nil {
		return nil, err
	}
	run, err := harness.RunPoint(ps)
	if err != nil {
		return nil, err
	}
	var got service.RunResponse
	if err := json.Unmarshal(res.body, &got); err != nil {
		return run, err
	}
	want := expectedResponse(ps, scale, run)
	want.Source = got.Source
	if got != want {
		return run, fmt.Errorf("served %+v, in-process %+v", got, want)
	}
	return run, nil
}

// expectedResponse is the /v1/run response a node builds from run.
func expectedResponse(ps harness.PointSpec, scale int, run *metrics.Run) service.RunResponse {
	c, o, m, sw := run.TotalBreakdown().Fractions()
	return service.RunResponse{
		Key:             ps.Key(scale),
		Workload:        ps.Workload.String(),
		P:               run.P,
		H:               run.H,
		SimN:            run.N,
		PaperN:          run.PaperN,
		MakespanCycles:  uint64(run.Makespan),
		MakespanSeconds: float64(run.Makespan) * 50e-9,
		CommMeanCycles:  run.MeanCommTime(),
		ComputePct:      100 * c,
		OverheadPct:     100 * o,
		CommPct:         100 * m,
		SwitchPct:       100 * sw,
		Switches:        run.SumCounter((*metrics.PE).TotalSwitches),
	}
}
