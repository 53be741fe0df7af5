// Package service is the HTTP layer of the emxd experiment daemon: it
// maps requests onto the labd scheduler, so identical experiment
// configurations are deduplicated, cached, and executed on a bounded
// worker pool regardless of how many clients ask for them.
//
// Endpoints:
//
//	POST /v1/run         execute (or fetch) one simulation point
//	POST /v1/figure      build a whole figure panel (see harness.PanelNames)
//	POST /v1/profile     execute one point with the emxprof tracer attached
//	GET  /v1/status      scheduler and cache state as JSON
//	GET  /metrics        Prometheus text exposition
//	POST /v1/cache/put   accept a replicated cache entry from a peer
//	POST /v1/cache/get   export one cache entry to a peer (replica fill)
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"emx/internal/harness"
	"emx/internal/labd"
	"emx/internal/metrics"
)

// Request bounds. ResolveRun rejects a run outside them before it
// reaches a scheduler or a routing hash, so the gateway and every node
// refuse the same requests. Each bound sits far above every figure panel
// and every emxload request space (P <= 80, H <= 16, paper sizes up to
// 2^29 elements, scale up to 2^20).
const (
	MaxP     = 1 << 10
	MaxH     = 1 << 8
	MaxN     = 1 << 30
	MaxScale = 1 << 30

	// MaxBodyBytes caps a /v1/run, /v1/figure or /v1/profile request
	// body; real bodies are a few hundred bytes.
	MaxBodyBytes = 64 << 10

	// MaxEntryBytes caps a replicated entry's body, both a /v1/cache/put
	// body and a peer's answer to /v1/cache/get. The widest entry — a
	// run at MaxP with every counter at its largest value — is 495 KiB.
	MaxEntryBytes = 1 << 20
)

// ForwardedByHeader marks a request as relayed by the cluster layer
// (the emxcluster gateway or cluster.Client). Nodes count these so an
// operator can tell direct traffic from cluster-routed traffic.
const ForwardedByHeader = "X-Emx-Forwarded-By"

// DeadlineHeader carries a request's absolute deadline as decimal
// nanoseconds since the Unix epoch. cluster.Client stamps it from its
// caller's context deadline, the gateway relays it unchanged, and
// RequestContext turns it back into a context deadline — so a client
// that has given up never costs a worker an execution.
const DeadlineHeader = "X-Emx-Deadline"

// RequestContext is r's context bounded by its DeadlineHeader: it ends
// when the client hangs up or the deadline passes, whichever is first.
// Without a usable header it is r.Context() itself, so a request that
// carries none allocates nothing here. The caller must call cancel.
func RequestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if d := RequestDeadline(r); !d.IsZero() {
		return context.WithDeadline(r.Context(), d)
	}
	return r.Context(), func() {}
}

// RequestDeadline parses r's DeadlineHeader. The zero time means no
// deadline (absent or unparseable header: deadlines are best-effort
// load shedding, not authentication — garbage degrades to "none").
func RequestDeadline(r *http.Request) time.Time {
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return time.Time{}
	}
	ns, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ns <= 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// FormatDeadline renders a deadline for the DeadlineHeader.
// FormatDeadline and RequestDeadline round-trip exactly, which is what
// lets the gateway relay the header byte-for-byte.
func FormatDeadline(deadline time.Time) string {
	return strconv.FormatInt(deadline.UnixNano(), 10)
}

// Options configures a Server. Zero values select the harness defaults
// (DefaultScale, seed 1) and labd's pool defaults.
type Options struct {
	// Scale is the default scale-down factor for requests that omit one.
	Scale int
	// Seed is the default input generator seed.
	Seed int64
	// Sched configures the underlying scheduler (workers, queue, cache).
	Sched labd.Options
	// Replication configures N-way cache replication across cluster
	// peers; the zero value disables it.
	Replication ReplicationOptions
}

// Server owns a scheduler and serves the experiment API on it.
type Server struct {
	opts  Options
	sched *labd.Scheduler
	repl  *replicator // nil when replication is disabled
	mux   *http.ServeMux
	start time.Time

	latency   *metrics.Histogram
	forwarded *metrics.Counter
	responses func(code int) *metrics.Counter

	prof     *profileCache
	profiled func(source string) *metrics.Counter
}

// New builds a server and starts its scheduler.
func New(opts Options) *Server {
	if opts.Scale <= 0 {
		opts.Scale = harness.DefaultScale
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Sched.Registry == nil {
		opts.Sched.Registry = metrics.NewRegistry()
	}
	s := &Server{
		opts:  opts,
		mux:   http.NewServeMux(),
		start: time.Now(), //emx:hostclock serving-uptime observability
	}
	if opts.Replication.Replicas > 1 {
		// The replicator's hooks must exist before the scheduler does.
		// A node without peers keeps the replica counters and the
		// /v1/cache/* store side, but never pushes or fills.
		s.repl = newReplicator(opts.Replication, opts.Sched.Registry)
		if s.repl.enabled() {
			opts.Sched.Fill = s.repl.fill
			opts.Sched.OnFill = s.repl.offer
		}
	}
	s.sched = labd.New(opts.Sched)
	reg := s.sched.Registry()
	s.latency = reg.Histogram("emxd_http_request_seconds",
		"HTTP request latency on the serving host", metrics.DefLatencyBuckets)
	s.forwarded = reg.Counter("emxd_forwarded_requests_total",
		"requests relayed by the cluster gateway or cluster client")
	s.responses = func(code int) *metrics.Counter {
		return reg.Labeled("emxd_http_responses_total",
			"HTTP responses by status code", "code", strconv.Itoa(code))
	}
	s.prof = newProfileCache(32)
	s.profiled = func(source string) *metrics.Counter {
		return reg.Labeled("emxd_profiled_runs_total",
			"profiled runs served, by how the profile was obtained", "source", source)
	}
	reg.Gauge("emxd_profile_cache_entries", "profiled points held in the profile cache",
		func() float64 { return float64(s.prof.len()) })
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/figure", s.handleFigure)
	s.mux.HandleFunc("/v1/profile", s.handleProfile)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/cache/put", s.handleCachePut)
	s.mux.HandleFunc("/v1/cache/get", s.handleCacheGet)
	return s
}

// FlushReplication blocks until queued replica pushes have been
// attempted (or timeout). Reports whether the queue drained. Always
// true when replication is disabled.
func (s *Server) FlushReplication(timeout time.Duration) bool {
	if s.repl == nil {
		return true
	}
	return s.repl.quiesce(timeout)
}

// handleCachePut accepts one replicated cache entry from a peer: the
// run's JSON as the body, its key in RunKeyHeader and its digest in
// DigestHeader. The digest is checked before the entry is decoded; a
// mismatch is a 400 and a counter bump, never a cache write.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	body, err := readEntry(w, r.Body)
	if err != nil {
		s.writeError(w, fmt.Errorf("bad entry: %w", err))
		return
	}
	key := r.Header.Get(RunKeyHeader)
	run, err := decodeEntry(key, r.Header.Get(DigestHeader), body)
	if err != nil {
		if s.repl != nil {
			s.repl.mismatches.Inc()
		}
		s.writeError(w, err)
		return
	}
	stored := s.sched.CachePut(key, run)
	if stored && s.repl != nil {
		s.repl.stores.Inc()
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"stored": stored})
}

// handleCacheGet exports the cache entry named by RunKeyHeader (the
// peer-fill read side) as the bytes encodeEntry gives, with the key
// and digest in headers. 404 means "no replica here" — the caller
// tries the next replica or recomputes.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	key := r.Header.Get(RunKeyHeader)
	run, ok := s.sched.CacheGet(key)
	if !ok {
		WriteJSON(w, http.StatusNotFound, errorResponse{Error: "not cached: " + key})
		return
	}
	body, digest, err := encodeEntry(run)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set(RunKeyHeader, key)
	h.Set(DigestHeader, digest)
	// A failed write means the peer went away; it fills from another
	// replica or executes.
	_, _ = w.Write(body)
}

// Handler returns the HTTP handler serving the API. Every request
// passes through the accounting wrapper: response-code counters, the
// latency histogram, and the forwarded-origin counter.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serve) }

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	start := time.Now() //emx:hostclock request-latency observability
	if r.Header.Get(ForwardedByHeader) != "" {
		s.forwarded.Inc()
	}
	s.responses(ServeStatus(s.mux, w, r)).Inc()
	s.latency.Observe(time.Since(start).Seconds()) //emx:hostclock
}

// ServeStatus serves r with h and returns the status code h answered
// with, for the response counters of a node and of the gateway.
func ServeStatus(h http.Handler, w http.ResponseWriter, r *http.Request) int {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.ServeHTTP(sw, r)
	return sw.code
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Scheduler exposes the underlying scheduler (shared with in-process
// sweeps and tests).
func (s *Server) Scheduler() *labd.Scheduler { return s.sched }

// Registry exposes the operational metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.sched.Registry() }

// Close stops the scheduler, draining queued runs, and stops the
// replication push loop.
func (s *Server) Close() {
	s.sched.Close()
	if s.repl != nil {
		s.repl.close()
	}
}

// RunRequest is the body of POST /v1/run: one simulation point in the
// paper's vocabulary. N is the paper-equivalent size; the simulated
// size is derived via the scale factor exactly as harness sweeps do.
type RunRequest struct {
	Workload  string `json:"workload"`             // bitonic | fft | spmv
	P         int    `json:"p"`                    // processors
	H         int    `json:"h"`                    // threads per processor
	N         int    `json:"n"`                    // paper-equivalent element count
	Scale     int    `json:"scale,omitempty"`      // 0: server default
	Seed      int64  `json:"seed,omitempty"`       // 0: server default
	Mode      string `json:"mode,omitempty"`       // "bypass" (default) | "exu"
	BlockRead bool   `json:"block_read,omitempty"` // bitonic block-read ablation
	ReplyHigh bool   `json:"reply_high,omitempty"` // resume-first reply scheduling
	Verify    bool   `json:"verify,omitempty"`     // run the workload self-check
}

// RunResponse reports one point's measurements and how they were
// obtained (executed, cached, or coalesced).
type RunResponse struct {
	Key             string  `json:"key"`
	Source          string  `json:"source"`
	Workload        string  `json:"workload"`
	P               int     `json:"p"`
	H               int     `json:"h"`
	SimN            int     `json:"sim_n"`
	PaperN          int     `json:"paper_n"`
	MakespanCycles  uint64  `json:"makespan_cycles"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	CommMeanCycles  float64 `json:"comm_mean_cycles"`
	ComputePct      float64 `json:"compute_pct"`
	OverheadPct     float64 `json:"overhead_pct"`
	CommPct         float64 `json:"comm_pct"`
	SwitchPct       float64 `json:"switch_pct"`
	Switches        uint64  `json:"switches"`
}

// FigureRequest is the body of POST /v1/figure.
type FigureRequest struct {
	Fig   string `json:"fig"`             // panel name, see harness.PanelNames
	Scale int    `json:"scale,omitempty"` // 0: server default
	Seed  int64  `json:"seed,omitempty"`  // 0: server default
}

// FigureResponse carries the panel's figures.
type FigureResponse struct {
	Fig     string           `json:"fig"`
	Scale   int              `json:"scale"`
	Seed    int64            `json:"seed"`
	Figures []harness.Figure `json:"figures"`
}

// StatusResponse is GET /v1/status.
type StatusResponse struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Workers       int                `json:"workers"`
	QueueDepth    int                `json:"queue_depth"`
	QueueCap      int                `json:"queue_cap"`
	CacheEntries  int                `json:"cache_entries"`
	CacheCap      int                `json:"cache_cap"`
	DefaultScale  int                `json:"default_scale"`
	DefaultSeed   int64              `json:"default_seed"`
	Replicas      int                `json:"replicas,omitempty"`
	Panels        []string           `json:"panels"`
	Throughput    Throughput         `json:"throughput"`
	Counters      map[string]float64 `json:"counters"`
}

// Throughput is the simulator's host throughput over every run this
// daemon executed: how fast the host burns simulated cycles and engine
// events. Cached and coalesced requests contribute nothing; host
// seconds sum per-run wall-clock time across workers. These numbers
// describe the serving host, not the simulated machine — they vary
// across hardware while the simulation results do not.
type Throughput struct {
	SimCycles       uint64  `json:"sim_cycles_total"`
	SimEvents       uint64  `json:"sim_events_total"`
	HostRunSeconds  float64 `json:"host_run_seconds_total"`
	CyclesPerSecond float64 `json:"sim_cycles_per_second"`
	EventsPerSecond float64 `json:"sim_events_per_second"`

	// QueueDepth and CacheHitRatio describe current load: runs admitted
	// but not started, and the fraction of resolved requests served from
	// the result cache. The cluster membership prober copies both,
	// with the queue's capacity, into the gateway's node status, where
	// they are only observed: routing does not read them.
	QueueDepth    int     `json:"queue_depth"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	// HTTP request latency quantiles on this host, estimated by linear
	// interpolation inside the fixed emxd_http_request_seconds buckets.
	LatencyP50 float64 `json:"http_latency_p50_seconds"`
	LatencyP95 float64 `json:"http_latency_p95_seconds"`
	LatencyP99 float64 `json:"http_latency_p99_seconds"`

	// ShedRequests counts requests shed before execution (deadline
	// expiry; queue-full rejections are emxd_runs_rejected_total).
	ShedRequests uint64 `json:"shed_requests_total"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// WriteError answers with status and err in the JSON error body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorResponse{Error: err.Error()})
}

// WriteJSON answers with status and v as indented JSON, the body shape
// of every API endpoint, the gateway's included.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps scheduler backpressure onto HTTP: a full queue is 503
// with a Retry-After estimating how long the backlog takes to drain —
// never a blocking wait and never a 500 — so cluster clients get a real
// signal to back off or fail over.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, labd.ErrQueueFull), errors.Is(err, labd.ErrDeadlineExceeded):
		// Both are shed load, and both get the adaptive drain estimate: a
		// deadline shed means the queue outlasted the client's patience,
		// which is exactly when the retry hint matters most.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	case errors.Is(err, labd.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	WriteError(w, status, err)
}

// retryAfterSeconds estimates queue-drain time from the observed mean
// run duration: depth/workers runs ahead of a newly admitted one, each
// costing ~HostSeconds/Started. Clamped to [1, 30] so a cold scheduler
// (no history) or a pathological backlog still yields a sane hint.
func (s *Server) retryAfterSeconds() int {
	st := s.sched.Stats()
	secs := 1
	if st.Started > 0 && st.Workers > 0 {
		mean := st.HostSeconds / float64(st.Started)
		secs = int(mean * float64(st.QueueDepth) / float64(st.Workers))
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// ctxExec binds one request's context onto every point a panel sweep
// fans into, so a figure request whose caller has gone sheds its
// remaining points instead of simulating them for nobody.
type ctxExec struct {
	ctx   context.Context
	sched *labd.Scheduler
}

func (e ctxExec) Do(key string, fn func() (*metrics.Run, error)) (*metrics.Run, labd.Source, error) {
	return e.sched.DoContext(e.ctx, key, fn)
}

// ReadBody reads a POST body of at most MaxBodyBytes for a caller that
// relays the bytes, as the gateway does. On failure it has answered the
// request as a node would: 405 for another method, 413 for a longer
// body, 400 for a broken read.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if !requirePost(w, r) {
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteError(w, status, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	return body, true
}

// readRequest decodes a POST body of at most MaxBodyBytes into v, or
// answers the request when it cannot.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if !requirePost(w, r) {
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v); err != nil {
		s.writeError(w, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return false
	}
	return true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	ps, scale, err := ResolveRun(req, s.opts.Scale, s.opts.Seed)
	if err != nil {
		s.writeError(w, err)
		return
	}
	key := ps.Key(scale)
	ctx, cancel := RequestContext(r)
	defer cancel()
	run, src, err := s.sched.DoContext(ctx, key, func() (*metrics.Run, error) {
		return harness.RunPoint(ps)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	b := run.TotalBreakdown()
	c, o, m, sw := b.Fractions()
	WriteJSON(w, http.StatusOK, RunResponse{
		Key:             key,
		Source:          src.String(),
		Workload:        ps.Workload.String(),
		P:               run.P,
		H:               run.H,
		SimN:            run.N,
		PaperN:          ps.PaperN, // the cached run may stand for another paper size
		MakespanCycles:  uint64(run.Makespan),
		MakespanSeconds: float64(run.Makespan) * 50e-9,
		CommMeanCycles:  run.MeanCommTime(),
		ComputePct:      100 * c,
		OverheadPct:     100 * o,
		CommPct:         100 * m,
		SwitchPct:       100 * sw,
		Switches:        run.SumCounter((*metrics.PE).TotalSwitches),
	})
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	var req FigureRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	req, err := resolveFigure(req, s.opts.Scale, s.opts.Seed)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := RequestContext(r)
	defer cancel()
	pr := harness.NewPanelRunner(harness.PanelOptions{Scale: req.Scale, Seed: req.Seed}, ctxExec{ctx, s.sched})
	figs, err := pr.Panel(req.Fig)
	if err != nil {
		s.writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, FigureResponse{Fig: req.Fig, Scale: req.Scale, Seed: req.Seed, Figures: figs})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	cps, eps := st.Throughput()
	WriteJSON(w, http.StatusOK, StatusResponse{
		UptimeSeconds: time.Since(s.start).Seconds(), //emx:hostclock
		Workers:       st.Workers,
		QueueDepth:    st.QueueDepth,
		QueueCap:      st.QueueCap,
		CacheEntries:  st.CacheLen,
		CacheCap:      st.CacheCap,
		DefaultScale:  s.opts.Scale,
		DefaultSeed:   s.opts.Seed,
		Replicas:      s.opts.Replication.Replicas,
		Panels:        harness.PanelNames(),
		Throughput: Throughput{
			SimCycles:       st.SimCycles,
			SimEvents:       st.SimEvents,
			HostRunSeconds:  st.HostSeconds,
			CyclesPerSecond: cps,
			EventsPerSecond: eps,
			QueueDepth:      st.QueueDepth,
			CacheHitRatio:   st.CacheHitRatio(),
			LatencyP50:      s.latency.Quantile(0.50),
			LatencyP95:      s.latency.Quantile(0.95),
			LatencyP99:      s.latency.Quantile(0.99),
			ShedRequests:    st.ShedDeadline,
		},
		Counters: s.sched.Registry().Snapshot(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.sched.Registry().WriteProm(w)
}
