package load

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"emx/internal/cluster"
	"emx/internal/metrics"
	"emx/internal/ring"
)

// Options configures one load run.
type Options struct {
	// Mode selects the workload model: "closed" (Clients concurrent
	// callers, each issuing its share of Requests back to back), "open"
	// (requests arrive on a seeded Poisson schedule at Rate regardless
	// of completions), or "ramp" (RampSteps open-loop segments of
	// Requests each at increasing offered rates, locating the
	// throughput knee).
	Mode string
	// Requests is the total request count (per segment, in ramp mode).
	Requests int
	// Clients is the closed-loop concurrency (default 4).
	Clients int
	// Rate is the open-loop offered load in requests/second (default 50).
	Rate float64
	// Deadline, when positive, bounds each request's context, so the
	// serving path's deadline propagation and shedding engage.
	Deadline time.Duration
	// Seed drives request synthesis; same seed, same traffic.
	Seed int64
	// Space and Mix shape the synthesized requests.
	Space Space
	Mix   Mix
	// Chaos is the fault schedule (requires a Lab).
	Chaos []Step
	// RampStart/RampStep/RampSteps define ramp mode's offered rates:
	// RampStart + s*RampStep for s in [0, RampSteps).
	RampStart float64
	RampStep  float64
	RampSteps int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Probe, when set, runs after each chaos restart so the target's
	// membership can re-admit the recovered node.
	Probe func()
}

func (o *Options) defaults() error {
	switch o.Mode {
	case "":
		o.Mode = "closed"
	case "closed", "open", "ramp":
	default:
		return fmt.Errorf("load: unknown mode %q (want closed, open, or ramp)", o.Mode)
	}
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Rate <= 0 {
		o.Rate = 50
	}
	if o.Mix.total() == 0 {
		o.Mix = DefaultMix
	}
	if o.Space.Scale == 0 {
		o.Space = DefaultSpace(o.Space.Scale, o.Space.Seed)
	}
	if o.Mode == "ramp" {
		if o.RampSteps <= 0 {
			o.RampSteps = 4
		}
		if o.RampStart <= 0 {
			o.RampStart = 10
		}
		if o.RampStep <= 0 {
			o.RampStep = o.RampStart
		}
	}
	return nil
}

// Run drives one load run against the cluster client and returns its
// report. lab may be nil when the target is external; a chaos schedule
// requires a lab (faults are injected in-process).
func Run(client *cluster.Client, lab *Lab, opts Options) (*Report, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	gen, err := NewGenerator(opts.Seed, opts.Space, opts.Mix)
	if err != nil {
		return nil, err
	}
	var ctrl *Controller
	if len(opts.Chaos) > 0 {
		if lab == nil {
			return nil, fmt.Errorf("load: chaos schedules require an in-process lab target")
		}
		ctrl, err = NewController(lab, opts.Chaos)
		if err != nil {
			return nil, err
		}
		ctrl.Probe = opts.Probe
		ctrl.Resolver = func(at uint64) (int, error) {
			urls := lab.URLs()
			owner := ring.New(urls).Owner(gen.Request(at).Key)
			for i, u := range urls {
				if u == owner {
					return i, nil
				}
			}
			return 0, fmt.Errorf("request %d's owner %q is not a lab node", at, owner)
		}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	r := &runner{client: client, gen: gen, ctrl: ctrl, opts: opts, col: NewCollector()}
	before := client.Stats()
	start := time.Now() //emx:hostclock run wall-clock measurement
	host := &Host{}
	switch opts.Mode {
	case "closed":
		logf("closed loop: %d requests across %d clients", opts.Requests, opts.Clients)
		r.closedLoop(0, opts.Requests, opts.Clients)
	case "open":
		logf("open loop: %d requests at %.1f req/s", opts.Requests, opts.Rate)
		r.openLoop(0, opts.Requests, opts.Rate)
	case "ramp":
		r.ramp(host, logf)
	}
	wall := time.Since(start).Seconds() //emx:hostclock
	after := client.Stats()

	issued, _ := r.col.Counts()
	host.WallSeconds = wall
	if wall > 0 {
		host.AchievedRPS = float64(issued) / wall
	}
	host.SLO = r.col.SLO()
	host.Client = clientStats(after.Sub(before))
	if lab != nil {
		host.Replication = lab.ReplicationStats()
	}

	nodes := 0
	if lab != nil {
		nodes = lab.Len()
	}
	rep := &Report{
		Schema: Schema,
		Mode:   opts.Mode,
		Seed:   opts.Seed,
		Config: Config{
			Requests:   opts.Requests,
			Clients:    opts.Clients,
			RateRPS:    opts.Rate,
			Mix:        opts.Mix.String(),
			Scale:      opts.Space.Scale,
			RunSeed:    opts.Space.Seed,
			DeadlineMS: int64(opts.Deadline / time.Millisecond),
			Nodes:      nodes,
		},
		Traffic: r.col.Traffic(),
		Host:    host,
	}
	if opts.Mode != "open" {
		rep.Config.RateRPS = 0
	}
	if opts.Mode != "closed" {
		rep.Config.Clients = 0
	}
	if opts.Mode == "ramp" {
		rep.Config.RampStartRPS = opts.RampStart
		rep.Config.RampStepRPS = opts.RampStep
		rep.Config.RampSteps = opts.RampSteps
	}
	if ctrl != nil {
		fired, errs := ctrl.Fired()
		rep.Chaos = &ChaosReport{Schedule: ctrl.steps, Fired: fired, Errors: errs}
	}
	return rep, nil
}

// runner carries one run's shared state across client goroutines.
type runner struct {
	client *cluster.Client
	gen    *Generator
	ctrl   *Controller
	opts   Options
	col    *Collector
	issued atomic.Uint64
	seg    *metrics.Histogram // ramp: current segment's latency
	segMu  sync.Mutex
}

// issue synthesizes, fires, and records request index i.
func (r *runner) issue(i uint64) {
	seq := r.issued.Add(1) - 1
	r.ctrl.BeforeIssue(seq)
	req := r.gen.Request(i)
	ctx := context.Background()
	if r.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.Deadline)
		defer cancel()
	}
	t0 := time.Now() //emx:hostclock client-observed latency
	res, err := r.client.Do(ctx, req.Key, req.Endpoint, req.Body)
	sec := time.Since(t0).Seconds() //emx:hostclock
	status := 0
	var body []byte
	if err == nil {
		status, body = res.Status, res.Body
	}
	r.col.Record(req.Endpoint, status, body, sec, err)
	r.segMu.Lock()
	if r.seg != nil {
		r.seg.Observe(sec)
	}
	r.segMu.Unlock()
}

// closedLoop partitions [first, first+n) across clients goroutines.
// Each client owns a contiguous index range, so the aggregate request
// multiset is the same for any client count or interleaving.
func (r *runner) closedLoop(first uint64, n, clients int) {
	if clients > n {
		clients = n
	}
	var wg sync.WaitGroup
	per := n / clients
	extra := n % clients
	lo := first
	for c := 0; c < clients; c++ {
		count := per
		if c < extra {
			count++
		}
		hi := lo + uint64(count)
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				r.issue(i)
			}
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// openLoop issues n requests on a seeded Poisson arrival schedule at
// rate req/s: inter-arrival gaps are -ln(u)/rate with u drawn from the
// request-index stream, so the schedule (like the requests) is a pure
// function of the seed. Arrivals do not wait for completions — that is
// what makes the loop open.
func (r *runner) openLoop(first uint64, n int, rate float64) {
	var wg sync.WaitGroup
	next := time.Now() //emx:hostclock open-loop arrival schedule
	for k := 0; k < n; k++ {
		i := first + uint64(k)
		gap := -math.Log(drawsAt(r.opts.Seed^0x6f70656e, i).float64()) / rate
		next = next.Add(time.Duration(gap * float64(time.Second)))
		time.Sleep(time.Until(next)) //emx:hostclock open-loop pacing
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			r.issue(i)
		}(i)
	}
	wg.Wait()
}

// ramp runs RampSteps open-loop segments at increasing offered rates
// and locates the saturation knee: the last offered rate the target
// achieved at least 90% of. Saturated records whether any step
// qualified — without it, KneeRPS 0 ("no step kept up") would be
// indistinguishable from a knee at rate 0.
func (r *runner) ramp(host *Host, logf func(string, ...any)) {
	saturated := false
	for s := 0; s < r.opts.RampSteps; s++ {
		offered := r.opts.RampStart + float64(s)*r.opts.RampStep
		seg := metrics.NewHistogram(metrics.DefLatencyBuckets)
		r.segMu.Lock()
		r.seg = seg
		r.segMu.Unlock()
		_, errsBefore := r.col.Counts()
		t0 := time.Now() //emx:hostclock per-segment achieved-rate measurement
		r.openLoop(uint64(s)*uint64(r.opts.Requests), r.opts.Requests, offered)
		wall := time.Since(t0).Seconds() //emx:hostclock
		_, errsAfter := r.col.Counts()
		achieved := 0.0
		if wall > 0 {
			achieved = float64(r.opts.Requests) / wall
		}
		row := RampRow{
			OfferedRPS:  offered,
			AchievedRPS: achieved,
			P99Seconds:  seg.Quantile(0.99),
			Errors:      errsAfter - errsBefore,
		}
		host.Ramp = append(host.Ramp, row)
		if achieved >= 0.9*offered {
			host.KneeRPS = offered
			saturated = true
		}
		logf("ramp step %d/%d: offered=%.1f achieved=%.1f p99=%.4fs errors=%d",
			s+1, r.opts.RampSteps, offered, achieved, row.P99Seconds, row.Errors)
	}
	r.segMu.Lock()
	r.seg = nil
	r.segMu.Unlock()
	host.Saturated = &saturated
}
