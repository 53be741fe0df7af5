package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"emx/internal/labd"
	"emx/internal/metrics"
)

// hugeScale clamps every panel size to the minimum grid, keeping test
// simulations tiny.
const hugeScale = 1 << 20

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{Scale: hugeScale, Seed: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := RunRequest{Workload: "fft", P: 4, H: 2, N: 64 << 10, Verify: true}

	resp := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	first := decode[RunResponse](t, resp)
	if first.Source != "executed" {
		t.Fatalf("first request source %q, want executed", first.Source)
	}
	if first.MakespanCycles == 0 || first.Workload != "fft" || first.P != 4 || first.H != 2 {
		t.Fatalf("bad response %+v", first)
	}
	if len(first.Key) != 64 {
		t.Fatalf("key %q is not a content hash", first.Key)
	}

	// The identical request is a cache hit with the same measurements.
	second := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", req))
	if second.Source != "cached" {
		t.Fatalf("second request source %q, want cached", second.Source)
	}
	if second.MakespanCycles != first.MakespanCycles || second.Key != first.Key {
		t.Fatalf("cached response differs: %+v vs %+v", second, first)
	}

	// Another paper size that clamps to the same simulated n is the same
	// simulation: cached under the same key, reported with its own n.
	relabelled := req
	relabelled.N = 32 << 10
	same := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", relabelled))
	if same.Source != "cached" || same.Key != first.Key || same.SimN != first.SimN {
		t.Fatalf("clamped request not served from the shared entry: %+v vs %+v", same, first)
	}
	if first.PaperN != req.N || same.PaperN != relabelled.N {
		t.Fatalf("paper_n = %d and %d, want each request's own %d and %d", first.PaperN, same.PaperN, req.N, relabelled.N)
	}

	// A different seed is a different run.
	req.Seed = 7
	third := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", req))
	if third.Source != "executed" || third.Key == first.Key {
		t.Fatalf("distinct request not re-executed: %+v", third)
	}
}

func TestRunEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	bad := []RunRequest{
		{Workload: "quicksort", P: 4, H: 1, N: 1024},
		{Workload: "fft", P: 0, H: 1, N: 1024},
		{Workload: "fft", P: 4, H: 0, N: 1024},
		{Workload: "fft", P: 4, H: 1, N: 0},
		{Workload: "fft", P: 4, H: 1, N: 1024, Mode: "warp"},
		{Workload: "fft", P: 4, H: 1, N: 1024, Scale: -1},
		{Workload: "fft", P: MaxP + 1, H: 1, N: 1024},
		{Workload: "fft", P: 4, H: MaxH + 1, N: 1024},
		{Workload: "fft", P: 4, H: 1, N: MaxN + 1},
		{Workload: "fft", P: 4, H: 1, N: 1024, Scale: MaxScale + 1},
		{Workload: "fft", P: 3, H: 1, N: 1024},
		{Workload: "bitonic", P: 80, H: 1, N: 1024},
		{Workload: "spmv", P: 3, H: 1, N: 1024},
	}
	for i, req := range bad {
		resp := postJSON(t, ts.URL+"/v1/run", req)
		e := decode[struct {
			Error string `json:"error"`
		}](t, resp)
		if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Errorf("bad request %d: status %d, error %q", i, resp.StatusCode, e.Error)
		}
	}
	// The server that refused them still serves a valid point.
	if got := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "fft", P: 4, H: 1, N: 1024})); got.Source != "executed" {
		t.Fatalf("valid point after bad ones: %+v", got)
	}
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: status %d", resp.StatusCode)
	}
}

// TestRunEndpointLegacyFieldSharesIdentity: older clients may still send
// a field this API has since dropped. The decoder ignores unknown fields, so
// such a body succeeds and resolves to the same key as the body without
// it (served from the cache entry the first request filled).
func TestRunEndpointLegacyFieldSharesIdentity(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(body string) RunResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
		return decode[RunResponse](t, resp)
	}
	first := post(`{"workload":"bitonic","p":4,"h":2,"n":65536}`)
	second := post(`{"workload":"bitonic","p":4,"h":2,"n":65536,"shards":3}`)
	if second.Key != first.Key || second.Source != "cached" {
		t.Fatalf("legacy body resolved differently: %+v vs %+v", second, first)
	}
}

// TestBadBodiesNeverReachScheduler: an oversized body and a run whose
// size clamp once overflowed (p = 2^62+1 made SimSize spin forever) are
// refused promptly with a 4xx, and the scheduler never sees them.
func TestBadBodiesNeverReachScheduler(t *testing.T) {
	oversized := `{"workload":"fft","p":4,"h":1,"n":1024,"fig":"6a","pad":"` +
		strings.Repeat("x", MaxBodyBytes) + `"}`
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"oversized run", "/v1/run", oversized, http.StatusRequestEntityTooLarge},
		{"oversized figure", "/v1/figure", oversized, http.StatusRequestEntityTooLarge},
		{"oversized profile", "/v1/profile", oversized, http.StatusRequestEntityTooLarge},
		{"overflowing p", "/v1/run", `{"workload":"fft","p":4611686018427387905,"h":1,"n":1024}`, http.StatusBadRequest},
		{"overflowing p profile", "/v1/profile", `{"workload":"fft","p":4611686018427387905,"h":1,"n":1024}`, http.StatusBadRequest},
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t)
			resp, err := client.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if st := srv.Scheduler().Stats(); st.Started+st.CacheHits+st.Coalesced+st.Rejected+st.ShedDeadline != 0 {
				t.Fatalf("request reached the scheduler: %+v", st)
			}
		})
	}
}

// TestFigureCacheHit is the subsystem's acceptance test: a repeated
// identical /v1/figure request is served entirely from cache — zero new
// simulator executions, asserted via the scheduler's counters.
func TestFigureCacheHit(t *testing.T) {
	srv, ts := newTestServer(t)

	first := decode[FigureResponse](t, postJSON(t, ts.URL+"/v1/figure", FigureRequest{Fig: "6a"}))
	if first.Fig != "6a" || len(first.Figures) != 1 {
		t.Fatalf("bad figure response %+v", first)
	}
	f := first.Figures[0]
	if len(f.Series) == 0 || len(f.X) == 0 || f.SimCycles == 0 {
		t.Fatalf("empty figure %+v", f)
	}
	started := srv.Scheduler().Stats().Started
	if started == 0 {
		t.Fatal("first figure ran no simulations")
	}
	hitsBefore := srv.Scheduler().Stats().CacheHits

	second := decode[FigureResponse](t, postJSON(t, ts.URL+"/v1/figure", FigureRequest{Fig: "6a"}))
	st := srv.Scheduler().Stats()
	if st.Started != started {
		t.Fatalf("repeated figure executed %d new simulations", st.Started-started)
	}
	if st.CacheHits <= hitsBefore {
		t.Fatalf("repeated figure produced no cache hits: %+v", st)
	}
	// Identical results, byte for byte.
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Fatal("cached figure differs from the original")
	}
}

func TestFigureUnknownPanel(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/figure", FigureRequest{Fig: "42z"})
	e := decode[struct {
		Error string `json:"error"`
	}](t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "6a") || !strings.Contains(e.Error, "latency") {
		t.Fatalf("error does not list valid panels: %q", e.Error)
	}
}

func TestStatusAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	// Populate one run so counters move.
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "bitonic", P: 4, H: 2, N: 64 << 10}).Body.Close()

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	status := decode[StatusResponse](t, resp)
	if status.Workers < 1 || status.QueueCap < 1 || status.CacheCap < 1 {
		t.Fatalf("bad status %+v", status)
	}
	if status.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", status.CacheEntries)
	}
	if status.Counters["emxd_runs_started_total"] != 1 {
		t.Fatalf("counters %v", status.Counters)
	}
	if len(status.Panels) == 0 {
		t.Fatal("status lists no panels")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	out := buf.String()
	for _, want := range []string{
		"emxd_runs_started_total 1",
		"emxd_runs_completed_total 1",
		"# TYPE emxd_queue_depth gauge",
		`emxd_workload_cycles_total{workload="bitonic"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestBackpressure503: a full queue surfaces as HTTP 503 + Retry-After.
func TestBackpressure503(t *testing.T) {
	srv := New(Options{Scale: hugeScale, Sched: labd.Options{Workers: 1, QueueSize: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// Hold the single worker, then the one queue slot, with blocked runs
	// submitted directly to the shared scheduler — sequentially, so the
	// second submission cannot race the worker's dequeue of the first
	// and bounce off the still-full queue.
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	// Unblock the held worker even when an assertion fails mid-test:
	// srv.Close() (deferred above, runs after this) waits for it.
	defer releaseOnce()
	done := make(chan struct{}, 2)
	submit := func(key string) {
		go func() {
			srv.Scheduler().Do(key, func() (*metrics.Run, error) {
				<-release
				return &metrics.Run{Label: "stub"}, nil
			})
			done <- struct{}{}
		}()
	}
	waitFor := func(desc string, ok func(labd.Stats) bool) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for !ok(srv.Scheduler().Stats()) {
			select {
			case <-deadline:
				t.Fatalf("%s: %+v", desc, srv.Scheduler().Stats())
			case <-time.After(time.Millisecond):
			}
		}
	}
	submit("held-by-worker")
	waitFor("worker never picked up the blocked run", func(st labd.Stats) bool { return st.Started == 1 })
	submit("held-in-queue")
	waitFor("queue slot never filled", func(st labd.Stats) bool { return st.QueueDepth == 1 })

	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "fft", P: 4, H: 1, N: 1024})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	e := decode[struct {
		Error string `json:"error"`
	}](t, resp)
	if !strings.Contains(e.Error, "queue full") {
		t.Fatalf("error %q", e.Error)
	}
	releaseOnce()
	<-done
	<-done
}

// TestStatusThroughputLoadFields: the throughput block carries the
// queue depth and the cache hit-ratio, which the gateway's node status
// shows.
func TestStatusThroughputLoadFields(t *testing.T) {
	srv, ts := newTestServer(t)
	req := RunRequest{Workload: "bitonic", P: 4, H: 2, N: 64 << 10}
	postJSON(t, ts.URL+"/v1/run", req).Body.Close() // executed
	postJSON(t, ts.URL+"/v1/run", req).Body.Close() // cached

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	status := decode[StatusResponse](t, resp)
	if got := status.Throughput.CacheHitRatio; got != 0.5 {
		t.Errorf("cache_hit_ratio = %g, want 0.5 (1 hit / 2 resolved)", got)
	}
	if status.Throughput.QueueDepth != 0 {
		t.Errorf("queue_depth = %d, want 0 at idle", status.Throughput.QueueDepth)
	}
	if srv.Scheduler().Stats().CacheHitRatio() != 0.5 {
		t.Errorf("Stats().CacheHitRatio() = %g", srv.Scheduler().Stats().CacheHitRatio())
	}
}

// TestRequestAccounting: the handler wrapper counts responses by status
// code, observes request latency, and tallies cluster-forwarded
// requests separately from direct ones.
func TestRequestAccounting(t *testing.T) {
	srv, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "bitonic", P: 4, H: 2, N: 64 << 10}).Body.Close()
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "nope", P: 4, H: 2, N: 1024}).Body.Close()

	fwd, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	fwd.Header.Set(ForwardedByHeader, "emxcluster")
	resp, err := http.DefaultClient.Do(fwd)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	snap := srv.Registry().Snapshot()
	if snap[`emxd_http_responses_total{code="200"}`] < 2 {
		t.Errorf("200 responses = %v", snap[`emxd_http_responses_total{code="200"}`])
	}
	if snap[`emxd_http_responses_total{code="400"}`] != 1 {
		t.Errorf("400 responses = %v", snap[`emxd_http_responses_total{code="400"}`])
	}
	if snap["emxd_forwarded_requests_total"] != 1 {
		t.Errorf("forwarded = %v", snap["emxd_forwarded_requests_total"])
	}
	if snap["emxd_http_request_seconds_count"] != 3 {
		t.Errorf("latency observations = %v", snap["emxd_http_request_seconds_count"])
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, want := range []string{
		"# TYPE emxd_http_request_seconds histogram",
		`emxd_http_request_seconds_bucket{le="+Inf"}`,
		`emxd_http_responses_total{code="200"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDeadlineHeaderShedsExpiredRequests: a request carrying an
// already-expired X-Emx-Deadline is shed with 503 + Retry-After, the
// shed counter records the reason, and the run is never executed.
func TestDeadlineHeaderShedsExpiredRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	body, err := json.Marshal(RunRequest{Workload: "fft", P: 4, H: 2, N: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, FormatDeadline(time.Unix(1, 0)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if st := srv.Scheduler().Stats(); st.ShedDeadline != 1 || st.Started != 0 {
		t.Fatalf("stats after shed: %+v", st)
	}

	// A garbage or absent deadline header must not shed anything.
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, "not-nanoseconds")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("garbage deadline header: status %d, want 200", resp.StatusCode)
	}
}

// TestDeadlineHeaderRoundTrip: FormatDeadline and RequestDeadline are
// exact inverses, which is what lets the gateway relay the header
// byte-for-byte unchanged across hops.
func TestDeadlineHeaderRoundTrip(t *testing.T) {
	want := time.Unix(1754600000, 123456789)
	r, err := http.NewRequest(http.MethodPost, "/v1/run", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set(DeadlineHeader, FormatDeadline(want))
	got := RequestDeadline(r)
	if !got.Equal(want) {
		t.Fatalf("round trip: %v != %v", got, want)
	}
	if FormatDeadline(got) != FormatDeadline(want) {
		t.Fatalf("re-format changed the header: %q vs %q", FormatDeadline(got), FormatDeadline(want))
	}
	if !RequestDeadline(&http.Request{Header: http.Header{}}).IsZero() {
		t.Fatal("absent header should parse to zero time")
	}
}

// TestStatusLatencyQuantiles: /v1/status reports p50/p95/p99 of the
// HTTP latency histogram and the shed counter.
func TestStatusLatencyQuantiles(t *testing.T) {
	_, ts := newTestServer(t)
	req := RunRequest{Workload: "bitonic", P: 4, H: 2, N: 64 << 10}
	postJSON(t, ts.URL+"/v1/run", req).Body.Close()
	postJSON(t, ts.URL+"/v1/run", req).Body.Close()

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	status := decode[StatusResponse](t, resp)
	tp := status.Throughput
	if tp.LatencyP50 <= 0 || tp.LatencyP95 <= 0 || tp.LatencyP99 <= 0 {
		t.Fatalf("latency quantiles missing: p50=%v p95=%v p99=%v", tp.LatencyP50, tp.LatencyP95, tp.LatencyP99)
	}
	if tp.LatencyP50 > tp.LatencyP95 || tp.LatencyP95 > tp.LatencyP99 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", tp.LatencyP50, tp.LatencyP95, tp.LatencyP99)
	}
}

// TestRunClientDisconnectLeavesQueue: a queued /v1/run whose HTTP
// client hangs up is never executed. The handler's request context
// ends, so it leaves the job, and the worker sheds the job at dequeue.
func TestRunClientDisconnectLeavesQueue(t *testing.T) {
	srv := New(Options{Scale: hugeScale, Seed: 1, Sched: labd.Options{Workers: 1}})
	ts := httptest.NewServer(srv.Handler())
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(func() { releaseOnce(); ts.Close(); srv.Close() })

	held := make(chan struct{})
	go srv.Scheduler().Do("held-by-worker", func() (*metrics.Run, error) {
		close(held)
		<-release
		return &metrics.Run{Label: "stub"}, nil
	})
	<-held

	body, err := json.Marshal(RunRequest{Workload: "fft", P: 4, H: 2, N: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Error("the canceled request got a response")
		}
	}()
	sched := srv.Scheduler()
	if !waitStats(sched, func(st labd.Stats) bool { return st.QueueDepth == 1 }) {
		t.Fatalf("the run never queued: %+v", sched.Stats())
	}
	cancel()
	<-sent
	// Give the handler time to see the hang-up; then free the worker
	// either way, so a handler that stayed shows up as a second start.
	waitStats(sched, func(st labd.Stats) bool { return st.ShedCanceled == 1 })
	releaseOnce()
	waitStats(sched, func(st labd.Stats) bool { return st.Completed+st.Failed+st.ShedAbandoned == 2 })
	if st := sched.Stats(); st.ShedCanceled != 1 || st.ShedAbandoned != 1 || st.Started != 1 {
		t.Fatalf("ShedCanceled=%d ShedAbandoned=%d Started=%d, want 1, 1, 1",
			st.ShedCanceled, st.ShedAbandoned, st.Started)
	}
}

// waitStats polls sched until ok holds, for up to five seconds, and
// reports whether it did.
func waitStats(sched *labd.Scheduler, ok func(labd.Stats) bool) bool {
	deadline := time.Now().Add(5 * time.Second) //emx:hostclock test polling
	for !ok(sched.Stats()) {
		if time.Now().After(deadline) { //emx:hostclock
			return false
		}
		time.Sleep(time.Millisecond) //emx:hostclock
	}
	return true
}
