package labd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emx/internal/metrics"
)

func fakeRun(label string, cycles int) *metrics.Run {
	return &metrics.Run{Label: label, Makespan: 1 << 10, PEs: make([]metrics.PE, 1)}
}

// TestCoalescing: concurrent identical requests execute the simulator
// exactly once; all callers see the same result object.
func TestCoalescing(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()

	var executions atomic.Int64
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	runs := make([]*metrics.Run, callers)
	sources := make([]Source, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, src, err := s.Do("same-key", func() (*metrics.Run, error) {
				executions.Add(1)
				<-release // hold the run in flight until everyone has arrived
				return fakeRun("bitonic", 100), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			runs[i], sources[i] = run, src
		}(i)
	}
	// Wait until every caller is either executing or coalesced-waiting.
	deadline := time.After(5 * time.Second)
	for {
		if s.Stats().Coalesced == callers-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("stuck waiting for coalescing: %+v", s.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions for %d identical requests, want 1", n, callers)
	}
	var executed, coalesced int
	for i := range runs {
		if runs[i] != runs[0] {
			t.Fatal("callers saw different result objects")
		}
		switch sources[i] {
		case Executed:
			executed++
		case Coalesced:
			coalesced++
		}
	}
	if executed != 1 || coalesced != callers-1 {
		t.Fatalf("sources: %d executed, %d coalesced", executed, coalesced)
	}
}

// TestCacheHit: a repeated request after completion never re-executes.
func TestCacheHit(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	var executions atomic.Int64
	fn := func() (*metrics.Run, error) {
		executions.Add(1)
		return fakeRun("fft", 10), nil
	}
	first, src, err := s.Do("k", fn)
	if err != nil || src != Executed {
		t.Fatalf("first: src=%v err=%v", src, err)
	}
	second, src, err := s.Do("k", fn)
	if err != nil || src != Cached {
		t.Fatalf("second: src=%v err=%v", src, err)
	}
	if first != second {
		t.Fatal("cache returned a different object")
	}
	if executions.Load() != 1 {
		t.Fatalf("%d executions, want 1", executions.Load())
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.Started != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestErrorsNotCached: a failed run is not cached and re-executes.
func TestErrorsNotCached(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	var executions atomic.Int64
	boom := errors.New("boom")
	fn := func() (*metrics.Run, error) {
		executions.Add(1)
		return nil, boom
	}
	if _, _, err := s.Do("k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := s.Do("k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if executions.Load() != 2 {
		t.Fatalf("%d executions, want 2 (errors must not be cached)", executions.Load())
	}
	if s.Stats().Failed != 2 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

// TestPanicIsAFailedRun: a job that panics fails its own caller, is
// counted as failed and is neither cached nor handed to OnFill; the
// worker survives to run the next job.
func TestPanicIsAFailedRun(t *testing.T) {
	var fills atomic.Int64
	s := New(Options{Workers: 1, OnFill: func(string, *metrics.Run) { fills.Add(1) }})
	defer s.Close()
	_, _, err := s.Do("bad", func() (*metrics.Run, error) {
		var mem []int
		_ = mem[3] // index out of range, as a malformed point would
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job: err = %v, want a panic error", err)
	}
	run, src, err := s.Do("good", func() (*metrics.Run, error) { return fakeRun("fft", 10), nil })
	if err != nil || src != Executed || run == nil {
		t.Fatalf("next job: src=%v err=%v", src, err)
	}
	if _, src, _ := s.Do("bad", func() (*metrics.Run, error) { return fakeRun("fft", 10), nil }); src != Executed {
		t.Fatalf("panicked key served from %v, want a fresh execution", src)
	}
	st := s.Stats()
	if st.Failed != 1 || st.Completed != 2 || fills.Load() != 2 {
		t.Fatalf("stats %+v, fills %d: want 1 failed, 2 completed, 2 fills", st, fills.Load())
	}
}

// TestLRUEviction: the cache respects its bound and evicts least
// recently used entries first.
func TestLRUEviction(t *testing.T) {
	s := New(Options{Workers: 1, CacheSize: 2})
	defer s.Close()
	var executions atomic.Int64
	do := func(key string) Source {
		t.Helper()
		_, src, err := s.Do(key, func() (*metrics.Run, error) {
			executions.Add(1)
			return fakeRun("spmv", 1), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	do("a") // cache: a
	do("b") // cache: b a
	if src := do("a"); src != Cached {
		t.Fatalf("a should be cached, got %v", src)
	} // cache: a b
	do("c") // evicts b -> cache: c a
	if got := s.CacheLen(); got != 2 {
		t.Fatalf("cache len %d, want 2", got)
	}
	if src := do("b"); src != Executed {
		t.Fatalf("b should have been evicted, got %v", src)
	} // re-adding b evicts a -> cache: b c
	if src := do("c"); src != Cached {
		t.Fatalf("c should still be cached, got %v", src)
	}
	if src := do("a"); src != Executed {
		t.Fatalf("a should have been evicted by b's return, got %v", src)
	}
}

// TestQueueBackpressure: a full queue rejects immediately with
// ErrQueueFull instead of blocking.
func TestQueueBackpressure(t *testing.T) {
	s := New(Options{Workers: 1, QueueSize: 1})
	defer s.Close()
	release := make(chan struct{})
	var wg sync.WaitGroup
	slow := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Do(key, func() (*metrics.Run, error) {
				<-release
				return fakeRun("bitonic", 1), nil
			})
		}()
	}
	slow("running") // occupies the single worker
	// Wait for the worker to pick it up, then fill the queue.
	deadline := time.After(5 * time.Second)
	for s.Stats().Started != 1 {
		select {
		case <-deadline:
			t.Fatal("worker never started the first job")
		case <-time.After(time.Millisecond):
		}
	}
	slow("queued") // sits in the queue (capacity 1)
	for s.Stats().QueueDepth != 1 {
		select {
		case <-deadline:
			t.Fatal("second job never queued")
		case <-time.After(time.Millisecond):
		}
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Do("rejected", func() (*metrics.Run, error) {
			return fakeRun("bitonic", 1), nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("err = %v, want ErrQueueFull", err)
		}
		if !strings.Contains(err.Error(), "capacity 1") {
			t.Fatalf("error lacks capacity detail: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do blocked on a full queue instead of rejecting")
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
	close(release)
	wg.Wait()
}

// TestClose: Do after Close errors; queued work completes first.
func TestClose(t *testing.T) {
	s := New(Options{Workers: 1})
	if _, _, err := s.Do("k", func() (*metrics.Run, error) { return fakeRun("fft", 1), nil }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, _, err := s.Do("k2", func() (*metrics.Run, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestDistinctKeysRunConcurrently sanity-checks the pool actually fans
// out: with 4 workers, 4 distinct blocked runs are all in flight.
func TestDistinctKeysRunConcurrently(t *testing.T) {
	s := New(Options{Workers: 4})
	defer s.Close()
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Do(fmt.Sprintf("k%d", i), func() (*metrics.Run, error) {
				<-release
				return fakeRun("fft", 1), nil
			})
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for s.Stats().Started != 4 {
		select {
		case <-deadline:
			t.Fatalf("pool did not fan out: %+v", s.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
}

func TestSourceString(t *testing.T) {
	if Executed.String() != "executed" || Cached.String() != "cached" || Coalesced.String() != "coalesced" {
		t.Fatal("bad source names")
	}
	if Source(9).String() != "source(9)" {
		t.Fatal("unknown source name")
	}
}

// TestDeadlineShedOnAdmission: an already-expired deadline is shed
// before it costs anything — the simulator function never runs.
func TestDeadlineShedOnAdmission(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ran := false
	_, _, err := s.DoContext(expiredCtx(t), "k", func() (*metrics.Run, error) {
		ran = true
		return fakeRun("bitonic", 1), nil
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if ran {
		t.Fatal("expired request still executed")
	}
	if st := s.Stats(); st.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}
}

// TestDeadlineShedWhenQueuedPastDeadline: a request admitted in time
// but still queued when its deadline passes leaves its job, which is
// then shed at dequeue.
func TestDeadlineShedWhenQueuedPastDeadline(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	blockerStarted := make(chan struct{})
	go s.Do("blocker", func() (*metrics.Run, error) {
		close(blockerStarted)
		<-release
		return fakeRun("bitonic", 1), nil
	})
	<-blockerStarted

	ran := false
	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	go func() {
		_, _, err := s.DoContext(ctx, "victim", func() (*metrics.Run, error) {
			ran = true
			return fakeRun("fft", 1), nil
		})
		done <- err
	}()
	err := <-done // the victim leaves at its deadline, still queued
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	close(release)
	waitForAbandoned(t, s, 1)
	if ran {
		t.Fatal("queued-past-deadline request still executed")
	}
	if st := s.Stats(); st.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}
}

// TestDeadlineCacheHitDespiteExpiry: cache hits cost nothing, so an
// expired request whose result is cached is served, not shed.
func TestDeadlineCacheHitDespiteExpiry(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	if _, _, err := s.Do("k", func() (*metrics.Run, error) { return fakeRun("spmv", 1), nil }); err != nil {
		t.Fatal(err)
	}
	run, src, err := s.DoContext(expiredCtx(t), "k", func() (*metrics.Run, error) {
		return nil, fmt.Errorf("must not execute")
	})
	if err != nil || src != Cached || run == nil {
		t.Fatalf("cache hit shed: run=%v src=%v err=%v", run, src, err)
	}
	if st := s.Stats(); st.ShedDeadline != 0 {
		t.Fatalf("ShedDeadline = %d, want 0", st.ShedDeadline)
	}
}

// TestCoalesceExtendsDeadline: a patient waiter keeps a coalesced job
// alive past an impatient caller's deadline and receives the result,
// while the impatient caller leaves at its own deadline with
// ErrDeadlineExceeded (its upstream has hung up by then).
func TestCoalesceExtendsDeadline(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	blockerStarted := make(chan struct{})
	go s.Do("blocker", func() (*metrics.Run, error) {
		close(blockerStarted)
		<-release
		return fakeRun("bitonic", 1), nil
	})
	<-blockerStarted

	// Impatient caller: queued with a deadline that will lapse.
	var ran atomic.Bool
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	first := make(chan error, 1)
	go func() {
		_, _, err := s.DoContext(ctx, "shared", func() (*metrics.Run, error) {
			ran.Store(true)
			return fakeRun("fft", 1), nil
		})
		first <- err
	}()
	waitForInflight(t, s, "shared")

	// Patient caller coalesces with no deadline.
	second := make(chan *metrics.Run, 1)
	go func() {
		run, _, err := s.Do("shared", func() (*metrics.Run, error) { return fakeRun("fft", 1), nil })
		if err != nil {
			t.Errorf("patient caller: %v", err)
		}
		second <- run
	}()
	waitForCoalesced(t, s, 1)

	if err := <-first; !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("impatient caller err = %v, want ErrDeadlineExceeded", err)
	}
	close(release)
	if run := <-second; run == nil {
		t.Fatal("patient caller got no result")
	}
	if !ran.Load() {
		t.Fatal("job was shed although a waiter kept it alive")
	}
	if st := s.Stats(); st.ShedDeadline != 1 || st.ShedAbandoned != 0 {
		t.Fatalf("stats = %+v, want ShedDeadline=1 ShedAbandoned=0", st)
	}
}

// TestCoalesceRecomputesDeadlineWhenPatientWaiterDeparts: a job lives
// only as long as some waiter does. When the patient waiter cancels and
// the impatient caller's deadline then passes, nobody is left, and the
// job is shed at dequeue instead of executing.
func TestCoalesceRecomputesDeadlineWhenPatientWaiterDeparts(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	blockerStarted := make(chan struct{})
	go s.Do("blocker", func() (*metrics.Run, error) {
		close(blockerStarted)
		<-release
		return fakeRun("bitonic", 1), nil
	})
	<-blockerStarted

	// Impatient caller creates the job with a deadline that will lapse.
	var ran atomic.Bool
	dctx, dcancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer dcancel()
	first := make(chan error, 1)
	go func() {
		_, _, err := s.DoContext(dctx, "shared", func() (*metrics.Run, error) {
			ran.Store(true)
			return fakeRun("fft", 1), nil
		})
		first <- err
	}()
	waitForInflight(t, s, "shared")

	// Patient caller coalesces with no deadline — then departs.
	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, _, err := s.DoContext(ctx, "shared", func() (*metrics.Run, error) {
			ran.Store(true)
			return fakeRun("fft", 1), nil
		})
		second <- err
	}()
	waitForCoalesced(t, s, 1)
	cancel()
	if err := <-second; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
	}

	if err := <-first; !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("surviving caller err = %v, want ErrDeadlineExceeded", err)
	}
	close(release)
	waitForAbandoned(t, s, 1)
	if ran.Load() {
		t.Fatal("job still executed after every waiter left")
	}
	st := s.Stats()
	if st.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}
	if st.ShedCanceled != 1 {
		t.Fatalf("ShedCanceled = %d, want 1", st.ShedCanceled)
	}
}

// TestOrphanedJobShedAsAbandoned: when every waiter departs before the
// job starts, the queued work is abandoned — the worker drops it at
// dequeue instead of computing a result nobody will read.
func TestOrphanedJobShedAsAbandoned(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	blockerStarted := make(chan struct{})
	go s.Do("blocker", func() (*metrics.Run, error) {
		close(blockerStarted)
		<-release
		return fakeRun("bitonic", 1), nil
	})
	<-blockerStarted

	var ran atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := s.DoContext(ctx, "orphan", func() (*metrics.Run, error) {
			ran.Store(true)
			return fakeRun("fft", 1), nil
		})
		done <- err
	}()
	waitForInflight(t, s, "orphan")
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	waitForAbandoned(t, s, 1)
	if ran.Load() {
		t.Fatal("orphaned job still executed")
	}
	if st := s.Stats(); st.ShedCanceled != 1 || st.ShedAbandoned != 1 {
		t.Fatalf("stats = %+v, want ShedCanceled=1 ShedAbandoned=1", st)
	}
}

// TestExecBypassesRunCache: Exec runs on the pool like any job, but
// nothing it does touches the run cache or coalesces.
func TestExecBypassesRunCache(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	var calls atomic.Int64
	for i := 0; i < 2; i++ {
		if err := s.Exec(context.Background(), func() error { calls.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	if err := s.Exec(context.Background(), func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	st := s.Stats()
	if calls.Load() != 2 || st.Started != 3 || st.Failed != 1 || st.CacheLen != 0 || st.CacheHits != 0 {
		t.Fatalf("calls=%d stats=%+v, want 2 calls, 3 started, 1 failed, nothing cached", calls.Load(), st)
	}
	if err := s.Exec(expiredCtx(t), func() error { t.Error("expired Exec ran"); return nil }); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired Exec err = %v, want ErrDeadlineExceeded", err)
	}
}

// expiredCtx is a context whose deadline has already passed.
func expiredCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(1, 0))
	t.Cleanup(cancel)
	return ctx
}

func waitForAbandoned(t *testing.T, s *Scheduler, n uint64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for s.Stats().ShedAbandoned < n {
		select {
		case <-deadline:
			t.Fatalf("never saw %d abandoned jobs: %+v", n, s.Stats())
		default:
			time.Sleep(time.Millisecond) //emx:hostclock test polling
		}
	}
}

func waitForInflight(t *testing.T, s *Scheduler, key string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		_, ok := s.inflight[key]
		s.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %q never became in-flight", key)
		default:
			time.Sleep(time.Millisecond) //emx:hostclock test polling
		}
	}
}

func waitForCoalesced(t *testing.T, s *Scheduler, n uint64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if s.Stats().Coalesced >= n {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("never saw %d coalesced waiters: %+v", n, s.Stats())
		default:
			time.Sleep(time.Millisecond) //emx:hostclock test polling
		}
	}
}
