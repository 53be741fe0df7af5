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

	"emx/internal/metrics"
)

// ErrQueueFull is returned by Do when the pending-run queue is at
// capacity: backpressure, not an execution failure. Callers should shed
// load or retry after runs drain.
var ErrQueueFull = errors.New("labd: run queue full")

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("labd: scheduler closed")

// ErrDeadlineExceeded is returned when a caller's context deadline
// passes before its result is ready: the caller has already given up,
// so executing (or waiting to execute) would burn a worker on a result
// nobody reads. Shed load, like ErrQueueFull — retryable, never an
// execution failure.
var ErrDeadlineExceeded = errors.New("labd: request deadline exceeded")

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
	// Registry receives the scheduler's operational counters; a private
	// registry is created when nil.
	Registry *metrics.Registry
	// Fill, when set, is consulted on a cache miss before a run is
	// scheduled for execution: a replication layer can fetch the
	// byte-identical content-addressed result from a peer replica. It is
	// called without the scheduler lock held (it is expected to do
	// network I/O, bounded by the caller's ctx) and returns nil on a
	// miss. A non-nil result is installed in the cache and served with
	// Source Replicated.
	Fill func(ctx context.Context, key string) *metrics.Run
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
	fill    func(ctx context.Context, key string) *metrics.Run
	onFill  func(key string, run *metrics.Run)

	mu       sync.Mutex
	inflight map[string]*job
	cache    *LRU[*metrics.Run]
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

	// waiters counts the callers still attached to this job; guarded
	// by Scheduler.mu. A caller whose context ends leaves, and a job
	// whose last waiter has left is shed at dequeue.
	waiters int
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
		cache:    NewLRU[*metrics.Run](o.CacheSize),
		reg:      reg,
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
	return s.DoContext(context.Background(), key, fn)
}

// DoContext is Do bounded by ctx. A caller whose ctx ends before its
// result arrives leaves the job: it gets ErrDeadlineExceeded if the
// deadline passed and ctx.Err() if it was canceled, and a job whose
// last waiter has left is shed at dequeue instead of executing for
// nobody. Cache hits are served even past the deadline: they cost
// nothing.
func (s *Scheduler) DoContext(ctx context.Context, key string, fn func() (*metrics.Run, error)) (*metrics.Run, Source, error) {
	triedFill := s.fill == nil
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, Executed, ErrClosed
		}
		if run, ok := s.cache.Get(key); ok {
			s.mu.Unlock()
			s.cacheHits.Inc()
			return run, Cached, nil
		}
		if ctx.Err() != nil {
			s.mu.Unlock()
			return nil, Executed, s.left(ctx)
		}
		if j, ok := s.inflight[key]; ok {
			j.waiters++
			s.mu.Unlock()
			s.coalescedHits.Inc()
			return s.wait(ctx, j, Coalesced)
		}
		if !triedFill {
			// Cache miss about to cost an execution: ask the fill hook
			// (peer replicas hold byte-identical copies) first. The hook
			// does network I/O, so drop the lock and re-run admission
			// afterwards — the cache or in-flight set may have changed.
			triedFill = true
			s.mu.Unlock()
			if run := s.fill(ctx, key); run != nil {
				s.mu.Lock()
				s.cache.Add(key, run)
				s.mu.Unlock()
				s.filled.Inc()
				return run, Replicated, nil
			}
			continue
		}
		j := &job{key: key, fn: fn, done: make(chan struct{}), waiters: 1}
		if err := s.enqueue(j); err != nil {
			s.mu.Unlock()
			return nil, Executed, err
		}
		s.inflight[key] = j
		s.mu.Unlock()
		return s.wait(ctx, j, Executed)
	}
}

// Exec runs fn on the worker pool outside the run cache: no lookup,
// coalescing, fill, insert or push. It is for work whose product is
// not a cacheable run, such as a profiled point; queueing, shedding and
// ctx handling are those of DoContext.
func (s *Scheduler) Exec(ctx context.Context, fn func() error) error {
	j := &job{fn: func() (*metrics.Run, error) { return nil, fn() }, done: make(chan struct{}), waiters: 1}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if ctx.Err() != nil {
		s.mu.Unlock()
		return s.left(ctx)
	}
	err := s.enqueue(j)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	_, _, err = s.wait(ctx, j, Executed)
	return err
}

// enqueue admits j to the run queue, or rejects it when the queue is
// full. Caller holds s.mu.
func (s *Scheduler) enqueue(j *job) error {
	select {
	case s.jobs <- j:
		return nil
	default:
		s.rejected.Inc()
		return fmt.Errorf("%w (capacity %d)", ErrQueueFull, cap(s.jobs))
	}
}

// wait blocks until j completes or ctx ends. A caller whose ctx ends
// first leaves the job, whether or not it has started: a gone caller
// reads nothing.
func (s *Scheduler) wait(ctx context.Context, j *job, src Source) (*metrics.Run, Source, error) {
	select {
	case <-j.done:
		return j.run, src, j.err
	case <-ctx.Done():
	}
	s.mu.Lock()
	select {
	case <-j.done:
		// Completed in the race window: the result is sitting there.
		s.mu.Unlock()
		return j.run, src, j.err
	default:
	}
	j.waiters--
	s.mu.Unlock()
	return nil, src, s.left(ctx)
}

// left counts a caller whose ctx ended before its result and returns
// the error that caller gets.
func (s *Scheduler) left(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.shedDeadline.Inc()
		return ErrDeadlineExceeded
	}
	s.shedCanceled.Inc()
	return ctx.Err()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.mu.Lock()
		if j.waiters == 0 {
			// Every waiter has left: shed the run before it costs a
			// worker anything. Nobody reads j's result. (An Exec job
			// is never in the in-flight set.)
			if s.inflight[j.key] == j {
				delete(s.inflight, j.key)
			}
			s.mu.Unlock()
			s.shedAbandoned.Inc()
			close(j.done)
			continue
		}
		s.mu.Unlock()
		s.started.Inc()
		j.run, j.err = runJob(j.fn)
		// An Exec job returns no run, so it is never cached.
		cached := j.err == nil && j.run != nil
		s.mu.Lock()
		if s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		if cached {
			s.cache.Add(j.key, j.run)
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
	// ShedDeadline counts callers that left because their deadline
	// passed before their result (ErrDeadlineExceeded); ShedCanceled
	// counts callers that left because their context was canceled;
	// queue-full sheds are Rejected. ShedAbandoned counts jobs shed at
	// dequeue because every waiter had left.
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
// the queue are not counted. It is an observability figure: /v1/status
// reports it and the gateway's node status copies it from there.
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

// CacheLen returns the number of cached results.
func (s *Scheduler) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Len()
}

// CacheCap returns the cache bound in entries.
func (s *Scheduler) CacheCap() int {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	return s.cache.Get(key)
}

// CachePut installs a replicated result. It reports false — and stores
// nothing — when the key is already present
// (content-addressed entries are byte-identical, so overwriting only
// churns the LRU order).
func (s *Scheduler) CachePut(key string, run *metrics.Run) bool {
	if run == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cache.items[key]; ok {
		return false
	}
	s.cache.Add(key, run)
	return true
}

// LRU is a plain least-recently-used cache of at most a fixed number
// of values by key. It is not safe for concurrent use: the scheduler's
// run cache is guarded by Scheduler.mu, the service's profile cache by
// its own lock.
type LRU[V any] struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns an empty LRU that holds at most capacity values.
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the value under key and marks it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Add stores val under key as the most recently used value and evicts
// the least recently used ones beyond the capacity.
func (c *LRU[V]) Add(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key, val})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry[V]).key)
	}
}

// Len returns the number of values held.
func (c *LRU[V]) Len() int { return c.ll.Len() }
