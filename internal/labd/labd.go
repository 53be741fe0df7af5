// Package labd is the experiment-orchestration layer of the
// reproduction: a scheduler that executes deterministic simulation runs
// on a bounded worker pool with content-addressed result caching,
// per-request coalescing, and queue backpressure.
//
// Every run is identified by the hash of its canonical request
// (core.RunIdentity): because a simulation is a pure function of that
// identity, the scheduler may serve a cached result, attach a duplicate
// request to an in-flight execution, or execute — all indistinguishable
// to the caller except for latency. Both the harness's figure sweeps
// and the emxd daemon (internal/labd/service) execute through this one
// path, so scheduling policy, caching, and operational counters are
// shared between the CLI and the service.
package labd

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"emx/internal/metrics"
)

// ErrQueueFull is returned by Do when the pending-run queue is at
// capacity: backpressure, not an execution failure. Callers should shed
// load or retry after runs drain.
var ErrQueueFull = errors.New("labd: run queue full")

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("labd: scheduler closed")

// ErrDeadlineExceeded is returned by DoDeadline when a request's
// deadline expires before its simulation starts: the caller has already
// given up, so executing (or waiting to execute) would burn a worker on
// a result nobody reads. Shed load, like ErrQueueFull — retryable,
// never an execution failure.
var ErrDeadlineExceeded = errors.New("labd: request deadline exceeded before execution")

// Source reports how a Do call obtained its result.
type Source uint8

const (
	// Executed: this call ran the simulation on a pool worker.
	Executed Source = iota
	// Cached: the result was served from the LRU cache, zero executions.
	Cached
	// Coalesced: an identical request was already in flight; this call
	// shared its single execution.
	Coalesced
	// Replicated: a cache miss was served by the Fill hook — another
	// node's byte-identical copy of the content-addressed result — with
	// zero local executions.
	Replicated
)

func (s Source) String() string {
	switch s {
	case Executed:
		return "executed"
	case Cached:
		return "cached"
	case Coalesced:
		return "coalesced"
	case Replicated:
		return "replicated"
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// Options configures a Scheduler. The zero value is usable: GOMAXPROCS
// workers, a 1024-deep queue, and a 512-entry result cache.
type Options struct {
	// Workers bounds concurrent simulator executions (<=0: GOMAXPROCS).
	Workers int
	// QueueSize bounds runs admitted but not yet started (<=0: 1024).
	// A full queue makes Do return ErrQueueFull.
	QueueSize int
	// CacheSize bounds the LRU result cache in entries (<=0: 512).
	CacheSize int
	// NoCache disables result caching entirely (coalescing still
	// applies). Used by one-shot sweeps that never repeat a request.
	NoCache bool
	// Registry receives the scheduler's operational counters; a private
	// registry is created when nil.
	Registry *metrics.Registry
	// Fill, when set, is consulted on a cache miss before a run is
	// scheduled for execution: a replication layer can fetch the
	// byte-identical content-addressed result from a peer replica. It is
	// called without the scheduler lock held (it is expected to do
	// network I/O, bounded by deadline; zero means no bound) and returns
	// nil on a miss. A non-nil result is installed in the cache and
	// served with Source Replicated.
	Fill func(key string, deadline time.Time) *metrics.Run
	// OnFill, when set, is invoked after an executed result is inserted
	// into the cache and before its waiters are released — the
	// replication push trigger. Called from the worker goroutine without
	// the scheduler lock held; it must not block (enqueue and return).
	OnFill func(key string, run *metrics.Run)
}

const (
	defaultQueueSize = 1024
	defaultCacheSize = 512
)

// Scheduler executes keyed runs on a bounded worker pool. Safe for
// concurrent use. Results returned from the cache or a coalesced
// execution are shared — callers must treat *metrics.Run as immutable.
type Scheduler struct {
	workers int
	jobs    chan *job
	fill    func(key string, deadline time.Time) *metrics.Run
	onFill  func(key string, run *metrics.Run)

	mu       sync.Mutex
	inflight map[string]*job
	cache    *lruCache // nil when caching is disabled
	closed   bool
	wg       sync.WaitGroup

	reg            *metrics.Registry
	started        *metrics.Counter
	completed      *metrics.Counter
	failed         *metrics.Counter
	cacheHits      *metrics.Counter
	coalescedHits  *metrics.Counter
	filled         *metrics.Counter
	rejected       *metrics.Counter
	shed           func(reason string) *metrics.Counter
	shedDeadline   *metrics.Counter
	shedQueueFull  *metrics.Counter
	shedAbandoned  *metrics.Counter
	shedCanceled   *metrics.Counter
	workloadCycles func(label string) *metrics.Counter

	// Host-throughput accounting: every executed run contributes its
	// simulated cycles, engine events, and host wall-clock nanoseconds,
	// so cycles/sec and events/sec — the simulator's host throughput —
	// fall out as ratios. Cached and coalesced hits contribute nothing
	// (no simulation ran for them).
	simCycles *metrics.Counter
	simEvents *metrics.Counter
	hostNanos *metrics.Counter
}

type job struct {
	key  string
	fn   func() (*metrics.Run, error)
	done chan struct{}
	run  *metrics.Run
	err  error

	// All fields below are guarded by Scheduler.mu.
	//
	// waiters holds the deadline of every caller still attached to this
	// job (zero = none). The effective deadline — the latest host time
	// execution may usefully start — is recomputed from the multiset on
	// every attach and detach: zero while any waiter is deadline-free,
	// otherwise the latest. A waiter that gives up (its own deadline
	// lapses, or its context is canceled, before execution starts)
	// detaches, so a patient waiter's departure no longer pins a stale
	// extended deadline on the job; when the last waiter departs the job
	// is orphaned and shed at dequeue.
	waiters  []time.Time
	deadline time.Time
	orphaned bool
}

// attach registers a caller's deadline with the job. Caller holds
// Scheduler.mu.
func (j *job) attach(deadline time.Time) {
	j.waiters = append(j.waiters, deadline)
	j.recomputeDeadline()
}

// detach removes one waiter with the given deadline (the multiset may
// hold duplicates; removing any is equivalent). Caller holds
// Scheduler.mu.
func (j *job) detach(deadline time.Time) {
	for i, d := range j.waiters {
		if d.Equal(deadline) {
			j.waiters = append(j.waiters[:i], j.waiters[i+1:]...)
			break
		}
	}
	j.recomputeDeadline()
}

func (j *job) recomputeDeadline() {
	j.orphaned = len(j.waiters) == 0
	var latest time.Time
	for _, d := range j.waiters {
		if d.IsZero() {
			j.deadline = time.Time{}
			return
		}
		if d.After(latest) {
			latest = d
		}
	}
	j.deadline = latest
}

// New starts a scheduler and its worker pool.
func New(o Options) *Scheduler {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueSize <= 0 {
		o.QueueSize = defaultQueueSize
	}
	if o.CacheSize <= 0 {
		o.CacheSize = defaultCacheSize
	}
	reg := o.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Scheduler{
		workers:  o.Workers,
		jobs:     make(chan *job, o.QueueSize),
		fill:     o.Fill,
		onFill:   o.OnFill,
		inflight: map[string]*job{},
		reg:      reg,
	}
	if !o.NoCache {
		s.cache = newLRU(o.CacheSize)
	}
	s.started = reg.Counter("emxd_runs_started_total", "simulator executions started")
	s.completed = reg.Counter("emxd_runs_completed_total", "simulator executions completed successfully")
	s.failed = reg.Counter("emxd_runs_failed_total", "simulator executions that returned an error")
	s.cacheHits = reg.Counter("emxd_runs_cache_hit_total", "requests served from the result cache")
	s.coalescedHits = reg.Counter("emxd_runs_coalesced_total", "requests attached to an identical in-flight execution")
	s.filled = reg.Counter("emxd_runs_filled_total", "cache misses served by the replica fill hook instead of executing")
	s.rejected = reg.Counter("emxd_runs_rejected_total", "requests rejected because the queue was full")
	s.shed = func(reason string) *metrics.Counter {
		return reg.Labeled("emxd_shed_requests_total",
			"requests shed before execution, by reason", "reason", reason)
	}
	s.shedDeadline = s.shed("deadline")
	s.shedQueueFull = s.shed("queue_full")
	s.shedAbandoned = s.shed("abandoned")
	s.shedCanceled = s.shed("canceled")
	s.workloadCycles = func(label string) *metrics.Counter {
		return reg.Labeled("emxd_workload_cycles_total",
			"simulated machine cycles executed, by workload", "workload", label)
	}
	s.simCycles = reg.Counter("emxd_sim_cycles_total", "simulated machine cycles executed")
	s.simEvents = reg.Counter("emxd_sim_events_total", "simulation engine events dispatched")
	s.hostNanos = reg.Counter("emxd_host_run_nanoseconds_total", "host wall-clock nanoseconds spent executing simulations")
	reg.Gauge("emxd_sim_cycles_per_host_second", "simulated cycles per host second of execution (aggregate across workers)",
		func() float64 { return rate(s.simCycles.Value(), s.hostNanos.Value()) })
	reg.Gauge("emxd_sim_events_per_host_second", "engine events per host second of execution (aggregate across workers)",
		func() float64 { return rate(s.simEvents.Value(), s.hostNanos.Value()) })
	reg.Gauge("emxd_queue_depth", "runs admitted but not yet started",
		func() float64 { return float64(len(s.jobs)) })
	reg.Gauge("emxd_cache_entries", "results held in the LRU cache",
		func() float64 { return float64(s.CacheLen()) })
	for i := 0; i < o.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Do returns the result for key, executing fn on the pool only if no
// cached or in-flight result exists. It blocks until the result is
// available, except when the queue is full (ErrQueueFull) or the
// scheduler is closed (ErrClosed). fn must be a pure function of key.
func (s *Scheduler) Do(key string, fn func() (*metrics.Run, error)) (*metrics.Run, Source, error) {
	return s.DoDeadline(key, time.Time{}, fn)
}

// DoDeadline is Do with deadline-aware load shedding: a request whose
// deadline (host wall-clock; zero means none) has already passed — or
// passes while the job waits in the queue — is shed with
// ErrDeadlineExceeded instead of executing. Cache hits are still
// served: they cost nothing. Coalescing onto an in-flight job extends
// that job's deadline to the latest waiter's, so an expiring request
// never sheds work a patient one still wants; when that patient waiter
// itself departs, the effective deadline shrinks back to the survivors'.
func (s *Scheduler) DoDeadline(key string, deadline time.Time, fn func() (*metrics.Run, error)) (*metrics.Run, Source, error) {
	return s.DoContext(context.Background(), key, deadline, fn)
}

// DoContext is DoDeadline with caller-departure awareness: when ctx is
// canceled before the result arrives, the call detaches from its job
// and returns ctx's error. The job's effective deadline is recomputed
// from the waiters still attached, and a job whose last waiter departed
// is shed at dequeue instead of executing for nobody.
func (s *Scheduler) DoContext(ctx context.Context, key string, deadline time.Time, fn func() (*metrics.Run, error)) (*metrics.Run, Source, error) {
	triedFill := s.fill == nil
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, Executed, ErrClosed
		}
		if s.cache != nil {
			if run, ok := s.cache.get(key); ok {
				s.mu.Unlock()
				s.cacheHits.Inc()
				return run, Cached, nil
			}
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) { //emx:hostclock deadline-aware load shedding
			s.mu.Unlock()
			s.shedDeadline.Inc()
			return nil, Executed, fmt.Errorf("%w (expired on admission)", ErrDeadlineExceeded)
		}
		if j, ok := s.inflight[key]; ok {
			j.attach(deadline)
			s.mu.Unlock()
			s.coalescedHits.Inc()
			return s.wait(ctx, j, deadline, Coalesced)
		}
		if !triedFill {
			// Cache miss about to cost an execution: ask the fill hook
			// (peer replicas hold byte-identical copies) first. The hook
			// does network I/O, so drop the lock and re-run admission
			// afterwards — the cache or in-flight set may have changed.
			triedFill = true
			s.mu.Unlock()
			if run := s.fill(key, deadline); run != nil {
				s.mu.Lock()
				if s.cache != nil {
					s.cache.add(key, run)
				}
				s.mu.Unlock()
				s.filled.Inc()
				return run, Replicated, nil
			}
			continue
		}
		j := &job{key: key, fn: fn, done: make(chan struct{})}
		j.attach(deadline)
		select {
		case s.jobs <- j:
			s.inflight[key] = j
			s.mu.Unlock()
		default:
			s.mu.Unlock()
			s.rejected.Inc()
			s.shedQueueFull.Inc()
			return nil, Executed, fmt.Errorf("%w (capacity %d)", ErrQueueFull, cap(s.jobs))
		}
		return s.wait(ctx, j, deadline, Executed)
	}
}

// wait blocks until j completes or ctx is canceled. A waiter whose own
// deadline lapses while another waiter keeps the job alive still
// receives the (already paid-for) result — deadline shedding is
// collective, decided at dequeue from the job's effective deadline. A
// canceled waiter, by contrast, departs individually: it detaches its
// deadline so the effective deadline shrinks to the survivors'.
func (s *Scheduler) wait(ctx context.Context, j *job, deadline time.Time, src Source) (*metrics.Run, Source, error) {
	if ctx.Done() == nil {
		<-j.done
		return j.run, src, j.err
	}
	select {
	case <-j.done:
		return j.run, src, j.err
	case <-ctx.Done():
		if s.detachIfUnfinished(j, deadline) {
			s.shedCanceled.Inc()
			return nil, src, ctx.Err()
		}
		// Completed in the race window: the result is sitting there.
		<-j.done
		return j.run, src, j.err
	}
}

// detachIfUnfinished detaches a canceled waiter whenever the result is
// not already available — a gone caller reads nothing, started or not.
func (s *Scheduler) detachIfUnfinished(j *job, deadline time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-j.done:
		return false
	default:
	}
	j.detach(deadline)
	return true
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.mu.Lock()
		expired := !j.deadline.IsZero() && time.Now().After(j.deadline) //emx:hostclock deadline-aware load shedding
		if j.orphaned || expired {
			// Every waiter gave up (or the latest deadline lapsed in
			// queue): shed the run before it costs a worker anything.
			j.err = fmt.Errorf("%w (queued past deadline)", ErrDeadlineExceeded)
			delete(s.inflight, j.key)
			s.mu.Unlock()
			if j.orphaned {
				s.shedAbandoned.Inc()
			} else {
				s.shedDeadline.Inc()
			}
			close(j.done)
			continue
		}
		s.mu.Unlock()
		s.started.Inc()
		j.run, j.err = runJob(j.fn)
		s.mu.Lock()
		delete(s.inflight, j.key)
		cached := false
		if j.err == nil && s.cache != nil {
			s.cache.add(j.key, j.run)
			cached = true
		}
		s.mu.Unlock()
		if j.err != nil {
			s.failed.Inc()
		} else {
			s.completed.Inc()
			if j.run != nil {
				if j.run.Label != "" {
					s.workloadCycles(j.run.Label).Add(uint64(j.run.Makespan))
				}
				s.simCycles.Add(uint64(j.run.Makespan))
				s.simEvents.Add(j.run.SimEvents)
				s.hostNanos.Add(uint64(j.run.HostElapsedSecs * 1e9))
			}
		}
		// Enqueue the replication push before waking waiters, so a
		// caller that has seen the result also sees the push pending.
		if cached && s.onFill != nil {
			s.onFill(j.key, j.run)
		}
		close(j.done)
	}
}

// runJob calls fn, turning a panic into an error: one bad point must
// fail its own request, not exit the process. A recovered run is never
// cached, so it is never replicated either.
func runJob(fn func() (*metrics.Run, error)) (run *metrics.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			run, err = nil, fmt.Errorf("labd: run panicked: %v", r)
		}
	}()
	return fn()
}

// Close drains queued runs and stops the workers. Do calls made after
// Close return ErrClosed; calls blocked in Do complete normally.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.wg.Wait()
}

// rate divides a count by nanoseconds expressed as seconds, guarding
// the before-first-run case.
func rate(count, nanos uint64) float64 {
	if nanos == 0 {
		return 0
	}
	return float64(count) / (float64(nanos) / 1e9)
}

// Stats is a point-in-time snapshot of the scheduler's counters.
type Stats struct {
	Started, Completed, Failed     uint64
	CacheHits, Coalesced, Rejected uint64
	// Filled counts cache misses served by the replica fill hook (zero
	// local executions).
	Filled uint64
	// ShedDeadline counts requests shed because their deadline expired
	// before execution (ErrDeadlineExceeded); queue-full sheds are
	// Rejected. ShedAbandoned counts jobs shed at dequeue because every
	// waiter had departed; ShedCanceled counts waiters that departed via
	// context cancellation.
	ShedDeadline         uint64
	ShedAbandoned        uint64
	ShedCanceled         uint64
	QueueDepth, QueueCap int
	CacheLen, CacheCap   int
	Workers              int

	// Host throughput over all executed runs (see Throughput for the
	// derived rates). HostSeconds sums per-run wall-clock time, so with
	// W busy workers it advances ~W× faster than real time.
	SimCycles   uint64
	SimEvents   uint64
	HostSeconds float64
}

// Stats returns current operational counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Started:       s.started.Value(),
		Completed:     s.completed.Value(),
		Failed:        s.failed.Value(),
		CacheHits:     s.cacheHits.Value(),
		Coalesced:     s.coalescedHits.Value(),
		Filled:        s.filled.Value(),
		Rejected:      s.rejected.Value(),
		ShedDeadline:  s.shedDeadline.Value(),
		ShedAbandoned: s.shedAbandoned.Value(),
		ShedCanceled:  s.shedCanceled.Value(),
		QueueDepth:    len(s.jobs),
		QueueCap:      cap(s.jobs),
		CacheLen:      s.CacheLen(),
		CacheCap:      s.CacheCap(),
		Workers:       s.workers,
		SimCycles:     s.simCycles.Value(),
		SimEvents:     s.simEvents.Value(),
		HostSeconds:   float64(s.hostNanos.Value()) / 1e9,
	}
}

// CacheHitRatio is the fraction of resolved requests served from the
// result cache: hits / (hits + coalesced + executed). Requests still in
// the queue are not counted. The cluster membership prober reads this
// for load-aware hedging — a cold node resolves most requests by
// executing and is a worse hedge target than a warm one.
func (st Stats) CacheHitRatio() float64 {
	total := st.CacheHits + st.Coalesced + st.Started
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// Throughput reports the simulator's host throughput: simulated cycles
// and engine events per host second of execution, aggregated over every
// run this scheduler executed (cache and coalesced hits excluded).
func (st Stats) Throughput() (cyclesPerSec, eventsPerSec float64) {
	if st.HostSeconds <= 0 {
		return 0, 0
	}
	return float64(st.SimCycles) / st.HostSeconds, float64(st.SimEvents) / st.HostSeconds
}

// CacheLen returns the number of cached results (0 when disabled).
func (s *Scheduler) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return 0
	}
	return s.cache.len()
}

// CacheCap returns the cache bound in entries (0 when disabled).
func (s *Scheduler) CacheCap() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return 0
	}
	return s.cache.cap
}

// Registry exposes the scheduler's metrics registry (for /metrics).
func (s *Scheduler) Registry() *metrics.Registry { return s.reg }

// RunsExecuted reports how many simulator executions this scheduler has
// started — the counter replication tests diff to prove a failover
// served cached bytes instead of recomputing.
func (s *Scheduler) RunsExecuted() uint64 { return s.started.Value() }

// CacheGet returns the cached result for key without counting a
// request-path cache hit. Used by the replication layer to export
// entries to peers.
func (s *Scheduler) CacheGet(key string) (*metrics.Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return nil, false
	}
	return s.cache.get(key)
}

// CachePut installs a replicated result. It reports false — and stores
// nothing — when caching is disabled or the key is already present
// (content-addressed entries are byte-identical, so overwriting only
// churns the LRU order).
func (s *Scheduler) CachePut(key string, run *metrics.Run) bool {
	if run == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return false
	}
	if _, ok := s.cache.items[key]; ok {
		return false
	}
	s.cache.add(key, run)
	return true
}

// lruCache is a plain LRU over *metrics.Run, guarded by Scheduler.mu.
type lruCache struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	run *metrics.Run
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *lruCache) get(key string) (*metrics.Run, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).run, true
}

func (c *lruCache) add(key string, run *metrics.Run) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).run = run
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key, run})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int { return c.ll.Len() }
