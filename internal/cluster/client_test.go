package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"emx/internal/labd/service"
	"emx/internal/metrics"
	"emx/internal/ring"
)

func figureBody(t *testing.T, fig string) []byte {
	t.Helper()
	b, err := json.Marshal(service.FigureRequest{Fig: fig, Scale: hugeScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestClientRoutesToOwner(t *testing.T) {
	_, ts1 := newNode(t)
	_, ts2 := newNode(t)
	m := NewMembership([]string{ts1.URL, ts2.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{Registry: reg, RetryBackoff: time.Millisecond})

	key := FigureKey("6a", hugeScale, 1)
	owner := ring.New(m.Members()).Owner(key)
	res, err := c.Do(context.Background(), key, "/v1/figure", figureBody(t, "6a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != owner {
		t.Errorf("request answered by %s, want ring owner %s", res.Node, owner)
	}
	if res.Status != http.StatusOK {
		t.Errorf("status %d", res.Status)
	}
	if reg.Snapshot()["emxcluster_failovers_total"] != 0 {
		t.Error("routine owner hit counted as failover")
	}
}

func TestClientFailsOverToPeer(t *testing.T) {
	srv1, ts1 := newNode(t)
	srv2, ts2 := newNode(t)
	m := NewMembership([]string{ts1.URL, ts2.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{Registry: reg, RetryBackoff: time.Millisecond})

	key := FigureKey("6a", hugeScale, 1)
	owner := ring.New(m.Members()).Owner(key)
	// Kill the owner; the peer must answer with identical bytes.
	peer := srv2
	if owner == ts1.URL {
		ts1.Close()
	} else {
		ts2.Close()
		peer = srv1
	}

	res, err := c.Do(context.Background(), key, "/v1/figure", figureBody(t, "6a"))
	if err != nil {
		t.Fatalf("failover did not rescue the request: %v", err)
	}
	if res.Node == owner {
		t.Fatal("dead owner answered")
	}
	if res.Status != http.StatusOK {
		t.Fatalf("status %d", res.Status)
	}
	if m.IsHealthy(owner) {
		t.Error("dead owner not passively marked down")
	}
	snap := reg.Snapshot()
	if snap["emxcluster_failovers_total"] == 0 || snap["emxcluster_retries_total"] == 0 {
		t.Errorf("failover/retry counters not moved: %v", snap)
	}
	if peer.Scheduler().Stats().Started == 0 {
		t.Error("surviving peer executed nothing")
	}
}

func TestClientBusyNodeRetriesAndHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	busyThenOK := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"labd: run queue full"}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer busyThenOK.Close()

	m := NewMembership([]string{busyThenOK.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{
		Registry:     reg,
		RetryBackoff: time.Millisecond,
		MaxRetryWait: 5 * time.Millisecond, // cap the 1s Retry-After for the test
	})
	start := time.Now()
	res, err := c.Do(context.Background(), "some-key", "/v1/run", []byte(`{}`))
	if err != nil || res.Status != http.StatusOK {
		t.Fatalf("res %+v err %v", res, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("MaxRetryWait did not cap the Retry-After wait: %s", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (busy then success)", calls.Load())
	}
	// Backpressure must not mark the node dead — it answered.
	if !m.IsHealthy(busyThenOK.URL) {
		t.Error("503 backpressure marked the node down")
	}
}

func TestClientDoesNotRetryValidationErrors(t *testing.T) {
	var calls atomic.Int32
	badReq := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"p must be >= 1"}`))
	}))
	defer badReq.Close()

	m := NewMembership([]string{badReq.URL}, MembershipOptions{})
	c := NewClient(m, ClientOptions{RetryBackoff: time.Millisecond})
	res, err := c.Do(context.Background(), "k", "/v1/run", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 passed through", res.Status)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls.Load())
	}
}

func TestClientHedgesSlowOwner(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(release) // LIFO: unblock the parked handler before Close waits on it
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"fast":true}`))
	}))
	defer fast.Close()

	m := NewMembership([]string{slow.URL, fast.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{
		Registry:     reg,
		RetryBackoff: time.Millisecond,
		HedgeDelay:   5 * time.Millisecond,
	})

	// Find a key the slow node owns, so the hedge targets the fast one.
	r := ring.New(m.Members())
	key := "k0"
	for i := 0; r.Owner(key) != slow.URL && i < 10000; i++ {
		key = "k" + string(rune('a'+i%26)) + key
	}
	if r.Owner(key) != slow.URL {
		t.Fatal("could not construct a key owned by the slow node")
	}

	res, err := c.Do(context.Background(), key, "/v1/run", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != fast.URL {
		t.Fatalf("answered by %s, want hedged fast node", res.Node)
	}
	snap := reg.Snapshot()
	if snap["emxcluster_hedges_total"] == 0 || snap["emxcluster_hedge_wins_total"] == 0 {
		t.Errorf("hedge counters not moved: %v", snap)
	}
}

// trackedBody counts Close calls so the test can prove every response
// body the transport handed out — hedge losers included — was closed.
type trackedBody struct {
	io.ReadCloser
	closed *atomic.Int64
}

func (b trackedBody) Close() error {
	b.closed.Add(1)
	return b.ReadCloser.Close()
}

// trackedTransport wraps the default transport and counts the response
// bodies it opens and the ones callers close.
type trackedTransport struct {
	opened, closed atomic.Int64
}

func (tt *trackedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if resp != nil {
		tt.opened.Add(1)
		resp.Body = trackedBody{resp.Body, &tt.closed}
	}
	return resp, err
}

// TestClientHedgeLoserDrainedAndUnpoisoned is the regression test for
// two hedging bugs: the loser's response body leaking (never drained or
// closed, pinning its pooled connection) under sustained hedging, and
// a canceled hedge loser being counted as a node failure — marking a
// healthy-but-slower node down and skewing its error counters. It also
// pins the win/loss accounting when both attempts complete: exactly one
// of the two is recorded per hedged request.
func TestClientHedgeLoserDrainedAndUnpoisoned(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(10 * time.Millisecond): //emx:hostclock test fixture: slower-but-alive owner
		case <-r.Context().Done():
			return
		}
		w.Write([]byte(`{"slow":true}`))
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"fast":true}`))
	}))
	defer fast.Close()

	m := NewMembership([]string{slow.URL, fast.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	tt := &trackedTransport{}
	c := NewClient(m, ClientOptions{
		Registry:     reg,
		RetryBackoff: time.Millisecond,
		HedgeDelay:   time.Millisecond,
		HTTPClient:   &http.Client{Transport: tt},
	})

	// A key the slow node owns, so every request hedges to the fast one.
	r := ring.New(m.Members())
	key := "k0"
	for i := 0; r.Owner(key) != slow.URL && i < 10000; i++ {
		key = "k" + string(rune('a'+i%26)) + key
	}
	if r.Owner(key) != slow.URL {
		t.Fatal("could not construct a key owned by the slow node")
	}

	const rounds = 25
	for i := 0; i < rounds; i++ {
		res, err := c.Do(context.Background(), key, "/v1/run", []byte(`{}`))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if res.Status != http.StatusOK {
			t.Fatalf("round %d: status %d", i, res.Status)
		}
	}

	// Losers finish (or get canceled) asynchronously after each winner
	// returns; give their goroutines a moment to close their bodies.
	deadline := time.Now().Add(2 * time.Second)                              //emx:hostclock test polling bound
	for tt.closed.Load() < tt.opened.Load() && time.Now().Before(deadline) { //emx:hostclock
		time.Sleep(time.Millisecond) //emx:hostclock
	}
	if opened, closed := tt.opened.Load(), tt.closed.Load(); closed != opened {
		t.Errorf("response bodies leaked: %d opened, %d closed", opened, closed)
	}

	// The slow owner answered everything it wasn't canceled out of:
	// losing a hedge race must not poison its health or error counters.
	if !m.IsHealthy(slow.URL) {
		t.Error("hedge-losing owner marked unhealthy")
	}
	snap := reg.Snapshot()
	if errs := snap[`emxcluster_node_errors_total{node="`+slow.URL+`"}`]; errs != 0 {
		t.Errorf("hedge-loser cancellations counted as %v node errors", errs)
	}
	s := c.Stats()
	if s.Hedges == 0 {
		t.Fatal("no hedges launched")
	}
	if s.HedgeWins+s.HedgeLosses != s.Hedges {
		t.Errorf("win/loss accounting drifted: hedges=%d wins=%d losses=%d",
			s.Hedges, s.HedgeWins, s.HedgeLosses)
	}
}

func TestClientLocalFallback(t *testing.T) {
	srv := service.New(service.Options{Scale: hugeScale, Seed: 1})
	defer srv.Close()

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	m := NewMembership([]string{dead.URL}, MembershipOptions{})
	reg := metrics.NewRegistry()
	c := NewClient(m, ClientOptions{
		Registry:     reg,
		Retries:      -1, // no remote retries: straight to local after the owner fails
		RetryBackoff: time.Millisecond,
		Local:        srv.Handler(),
	})

	figs, err := c.Figure(context.Background(), "6a", hugeScale, 1)
	if err != nil {
		t.Fatalf("local fallback failed: %v", err)
	}
	if len(figs) != 1 || figs[0].SimCycles == 0 {
		t.Fatalf("bad figures %+v", figs)
	}
	if reg.Snapshot()["emxcluster_local_fallback_total"] != 1 {
		t.Error("local fallback not counted")
	}
	if srv.Scheduler().Stats().Started == 0 {
		t.Error("local scheduler executed nothing")
	}
}

// TestClientStatsDeltas: Stats snapshots diff into the per-run outcome
// counts load generators report.
func TestClientStatsDeltas(t *testing.T) {
	srv1, ts1 := newNode(t)
	_, ts2 := newNode(t)
	_ = srv1
	m := NewMembership([]string{ts1.URL, ts2.URL}, MembershipOptions{})
	c := NewClient(m, ClientOptions{RetryBackoff: time.Millisecond})

	key := FigureKey("6a", hugeScale, 1)
	before := c.Stats()
	if _, err := c.Do(context.Background(), key, "/v1/figure", figureBody(t, "6a")); err != nil {
		t.Fatal(err)
	}
	d := c.Stats().Sub(before)
	if d.Attempts != 1 || d.Retries != 0 || d.Failovers != 0 {
		t.Fatalf("healthy-owner deltas: %+v", d)
	}

	// Kill the owner: the next request must retry and fail over, and
	// the deltas must show exactly that.
	owner := ring.New(m.Members()).Owner(key)
	for _, ts := range []*httptest.Server{ts1, ts2} {
		if ts.URL == owner {
			ts.CloseClientConnections()
			ts.Close()
		}
	}
	before = c.Stats()
	res, err := c.Do(context.Background(), key, "/v1/figure", figureBody(t, "6a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node == owner {
		t.Fatalf("dead owner %s answered", owner)
	}
	d = c.Stats().Sub(before)
	if d.Failovers != 1 || d.Retries == 0 {
		t.Fatalf("dead-owner deltas: %+v", d)
	}
}

// TestClientStampsDeadlineHeader: Do sends its context's deadline on
// every attempt in the exact FormatDeadline encoding, and a context
// without a deadline sends no header at all.
func TestClientStampsDeadlineHeader(t *testing.T) {
	var header atomic.Value
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get(service.DeadlineHeader))
		w.Write([]byte("{}"))
	}))
	t.Cleanup(echo.Close)
	m := NewMembership([]string{echo.URL}, MembershipOptions{})
	c := NewClient(m, ClientOptions{})

	deadline := time.Now().Add(time.Hour) //emx:hostclock test fixture deadline
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if _, err := c.Do(ctx, "k", "/v1/run", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got, want := header.Load().(string), service.FormatDeadline(deadline); got != want {
		t.Fatalf("deadline header = %q, want %q", got, want)
	}

	if _, err := c.Do(context.Background(), "k", "/v1/run", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got := header.Load().(string); got != "" {
		t.Fatalf("zero deadline sent header %q", got)
	}
}

// TestClientExpiredDeadlineFailsWithoutAttempt: a dead deadline stops
// the client before any network traffic.
func TestClientExpiredDeadlineFailsWithoutAttempt(t *testing.T) {
	var hits atomic.Int64
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	}))
	t.Cleanup(node.Close)
	m := NewMembership([]string{node.URL}, MembershipOptions{})
	c := NewClient(m, ClientOptions{})

	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(1, 0))
	defer cancel()
	if _, err := c.Do(ctx, "k", "/v1/run", []byte("{}")); err == nil {
		t.Fatal("expired deadline succeeded")
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("expired request reached the node %d times", n)
	}
}
