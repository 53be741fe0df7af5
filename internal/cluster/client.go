// Package cluster federates N emxd nodes into one experiment service:
// a rendezvous-hashing ring (internal/ring) routes each
// content-addressed run to an owner node (so the per-node LRU caches
// shard instead of duplicating), a membership layer probes /v1/status
// and tracks node health and load, and a failover-aware client issues
// each request along one path: the ranked candidate nodes under
// per-attempt timeouts and bounded retries that honour a node's
// Retry-After, then local in-process execution when every node failed.
//
// Failover never changes results: runs are deterministic, so any node
// (or the local fallback) produces byte-identical measurements for a
// given run identity.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"emx/internal/harness"
	"emx/internal/labd/service"
	"emx/internal/metrics"
	"emx/internal/ring"
)

// ClientOptions tunes the failover policy. The zero value is usable:
// no per-attempt timeout, two retries, 100ms base backoff, no local
// fallback.
type ClientOptions struct {
	// AttemptTimeout bounds one request attempt (0: no timeout — figure
	// sweeps at large scale legitimately run for minutes).
	AttemptTimeout time.Duration
	// Retries is how many additional attempts follow a failed first one,
	// each against the next-ranked candidate node (default 2).
	Retries int
	// Replicas is the cluster's cache replication factor (R). When set
	// above Retries+1 it raises the attempt budget so failover walks the
	// whole replica set — a cached result on any surviving replica is
	// always preferred over a local recompute.
	Replicas int
	// RetryBackoff is the base delay between attempt rounds; round i
	// waits RetryBackoff * 2^i plus a deterministic jitter derived from
	// the routing key (default 100ms).
	RetryBackoff time.Duration
	// MaxRetryWait caps any single inter-attempt wait, including waits
	// requested by a node's Retry-After backpressure header (default 2s).
	MaxRetryWait time.Duration
	// Local, when set, serves requests in-process (an emxd
	// service.Server handler) after every remote candidate has failed —
	// graceful degradation to local execution. Results are byte-identical
	// to a remote node's: runs are deterministic.
	Local http.Handler
	// HTTPClient overrides the transport (default: a dedicated client
	// with no global timeout; AttemptTimeout governs per attempt).
	HTTPClient *http.Client
	// Registry receives the client's operational counters (nil: private).
	Registry *metrics.Registry
}

// LocalNode is the Node name reported for responses served by the
// in-process fallback handler.
const LocalNode = "local"

// Result is the terminal response of a routed request: the node that
// answered, the HTTP status, and the full body. Non-2xx statuses that
// are not worth failing over (validation errors, say) surface here
// rather than as an error, so gateways can pass them through.
type Result struct {
	Node   string
	Status int
	Header http.Header
	Body   []byte
}

// Client routes requests across a membership's nodes by rendezvous
// hashing with bounded retries and failover. Safe for concurrent use.
type Client struct {
	members *Membership
	opts    ClientOptions
	http    *http.Client

	attempts  *metrics.Counter
	retries   *metrics.Counter
	failovers *metrics.Counter
	localRuns *metrics.Counter
	nodeErrs  func(node string) *metrics.Counter
}

// Stats is a point-in-time snapshot of the client's per-attempt outcome
// counters. Load generators diff two snapshots to report what the
// failover machinery did during a run (the counters themselves also
// expose via the Registry for /metrics).
type Stats struct {
	// Attempts counts every request issued to a member node, including
	// retries.
	Attempts uint64
	// Retries counts attempts beyond the first for a request.
	Retries uint64
	// Failovers counts requests answered by a node other than the ring
	// owner (including local-fallback rescues).
	Failovers uint64
	// LocalFallbacks counts requests served by in-process execution
	// after every remote candidate failed.
	LocalFallbacks uint64
	// Hedges is always 0: the client sends no hedged requests. It is
	// kept only because the benchmark module (perfbench) still reports
	// it, and goes when that module stops reading it.
	Hedges uint64
}

// Stats returns the client's current outcome counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:       c.attempts.Value(),
		Retries:        c.retries.Value(),
		Failovers:      c.failovers.Value(),
		LocalFallbacks: c.localRuns.Value(),
	}
}

// Sub returns s - o field-wise: the outcomes between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Attempts:       s.Attempts - o.Attempts,
		Retries:        s.Retries - o.Retries,
		Failovers:      s.Failovers - o.Failovers,
		LocalFallbacks: s.LocalFallbacks - o.LocalFallbacks,
	}
}

// NewClient builds a client over the membership.
func NewClient(m *Membership, opts ClientOptions) *Client {
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Retries < 0 { // explicit "no retries"
		opts.Retries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 100 * time.Millisecond
	}
	if opts.MaxRetryWait <= 0 {
		opts.MaxRetryWait = 2 * time.Second
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Client{
		members:   m,
		opts:      opts,
		http:      hc,
		attempts:  reg.Counter("emxcluster_attempts_total", "request attempts issued to member nodes"),
		retries:   reg.Counter("emxcluster_retries_total", "attempts beyond the first for a request"),
		failovers: reg.Counter("emxcluster_failovers_total", "requests answered by a node other than the ring owner"),
		localRuns: reg.Counter("emxcluster_local_fallback_total", "requests served by local in-process execution"),
		nodeErrs: func(node string) *metrics.Counter {
			return reg.Labeled("emxcluster_node_errors_total",
				"failed attempts by member node", "node", node)
		},
	}
}

// Membership exposes the client's membership view.
func (c *Client) Membership() *Membership { return c.members }

// errPermanent wraps an HTTP result that must not be retried: the node
// answered authoritatively (a 4xx validation error, say), so failing
// over to a peer would just repeat it.
type errPermanent struct{ res *Result }

func (e errPermanent) Error() string {
	return fmt.Sprintf("node %s: HTTP %d", e.res.Node, e.res.Status)
}

// Do routes one POST to the cluster: the ring owner of key first, then
// — across bounded retries with jittered exponential backoff — each
// next-ranked healthy node, then any node at all, then the local
// fallback. 503 responses (queue backpressure) wait out the node's Retry-After
// hint (capped) before the next candidate; 4xx responses return as-is.
//
// ctx bounds the whole request: every attempt runs under it, its
// deadline rides each attempt as a DeadlineHeader so nodes can shed the
// request once it passes, and no attempt starts — and no backoff waits
// — after it ends.
func (c *Client) Do(ctx context.Context, key, path string, body []byte) (*Result, error) {
	candidates := c.candidates(key)
	if len(candidates) == 0 && c.opts.Local == nil {
		return nil, errors.New("cluster: no member nodes")
	}
	owner := ""
	if len(candidates) > 0 {
		owner = candidates[0]
	}

	var lastErr error
	attempts := c.opts.Retries + 1
	if c.opts.Replicas > attempts {
		// Walk the full replica set before giving up: any surviving
		// replica serves the cached bytes; recompute is the last resort.
		attempts = c.opts.Replicas
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.retries.Inc()
			c.sleepBackoff(ctx, key, i-1, lastErr)
		}
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		if len(candidates) == 0 {
			break
		}
		res, err := c.attempt(ctx, candidates[i%len(candidates)], path, body)
		if err == nil {
			if res.Node != owner {
				c.failovers.Inc()
			}
			return res, nil
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			return perm.res, nil
		}
		lastErr = err
	}

	if c.opts.Local != nil && ctx.Err() == nil {
		c.localRuns.Inc()
		res, err := c.local(ctx, path, body)
		if err == nil && owner != "" {
			c.failovers.Inc()
		}
		return res, err
	}
	return nil, fmt.Errorf("cluster: all %d attempts failed for %s: %w", attempts, path, lastErr)
}

// candidates orders the nodes to try: ranked healthy nodes first, then
// ranked unhealthy ones as a last resort (health data may be stale and
// a "down" node is still better than no node).
func (c *Client) candidates(key string) []string {
	ranked := c.members.ring.Ranked(key)
	healthy := make([]string, 0, len(ranked))
	down := make([]string, 0, len(ranked))
	for _, n := range ranked {
		if c.members.IsHealthy(n) {
			healthy = append(healthy, n)
		} else {
			down = append(down, n)
		}
	}
	return append(healthy, down...)
}

// sleepBackoff waits before retry round i: base * 2^i plus a
// deterministic jitter derived from the routing key (no host
// randomness; different keys desynchronize naturally), stretched to a
// node-requested Retry-After when the last failure was backpressure.
// Every wait is capped by MaxRetryWait and ends early when ctx does
// (the loop sheds on wake instead).
func (c *Client) sleepBackoff(ctx context.Context, key string, round int, lastErr error) {
	d := c.opts.RetryBackoff << uint(round)
	d += time.Duration(ring.Mix64(ring.Score(key, "jitter"+strconv.Itoa(round))) % uint64(c.opts.RetryBackoff))
	var busy errBusy
	if errors.As(lastErr, &busy) && busy.retryAfter > d {
		d = busy.retryAfter
	}
	if d > c.opts.MaxRetryWait {
		d = c.opts.MaxRetryWait
	}
	t := time.NewTimer(d) //emx:hostclock retry pacing against live nodes
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// errBusy is a 503 backpressure response: retryable, carrying the
// node's drain estimate.
type errBusy struct {
	node       string
	retryAfter time.Duration
}

func (e errBusy) Error() string {
	return fmt.Sprintf("node %s: busy (Retry-After %s)", e.node, e.retryAfter)
}

// attempt issues one POST to one node under parent, further bounded
// by AttemptTimeout.
func (c *Client) attempt(parent context.Context, node, path string, body []byte) (*Result, error) {
	c.attempts.Inc()
	ctx := parent
	if c.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, c.opts.AttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.ForwardedByHeader, "emxcluster")
	if deadline, ok := parent.Deadline(); ok {
		// The same decimal nanoseconds every hop sees: the gateway relays
		// this header unchanged, and nodes shed the request once it passes.
		req.Header.Set(service.DeadlineHeader, service.FormatDeadline(deadline))
	}
	resp, err := c.http.Do(req)
	var b []byte
	if err == nil {
		// Always drain and close the body — also when the caller gave up
		// mid-read — so the transport can reuse or drop the connection
		// instead of leaking it.
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		if parent.Err() != nil {
			// The caller gave up (hung up, or its deadline passed). The
			// abort says nothing about this node's health, so don't
			// poison the membership view or the per-node error counters
			// with it.
			return nil, fmt.Errorf("node %s: attempt canceled: %w", node, parent.Err())
		}
		c.nodeErrs(node).Inc()
		c.members.MarkFailure(node, err)
		return nil, fmt.Errorf("node %s: %w", node, err)
	}
	res := &Result{Node: node, Status: resp.StatusCode, Header: resp.Header, Body: b}
	switch {
	case resp.StatusCode < 300:
		c.members.MarkHealthy(node)
		return res, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Backpressure, not death: the node is alive and telling us how
		// long its queue needs. Retryable against the next candidate.
		ra := time.Duration(0)
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			ra = time.Duration(secs) * time.Second
		}
		return nil, errBusy{node: node, retryAfter: ra}
	case resp.StatusCode >= 500:
		c.nodeErrs(node).Inc()
		c.members.MarkFailure(node, fmt.Errorf("HTTP %s", resp.Status))
		return nil, fmt.Errorf("node %s: HTTP %s", node, resp.Status)
	default:
		// 4xx: the request itself is at fault; every node would answer
		// the same. Surface the response, do not fail over.
		c.members.MarkHealthy(node)
		return nil, errPermanent{res}
	}
}

// local serves the request through the in-process fallback handler.
func (c *Client) local(ctx context.Context, path string, body []byte) (*Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	rec := newBufferedResponse()
	c.opts.Local.ServeHTTP(rec, req)
	return &Result{Node: LocalNode, Status: rec.status, Header: rec.header, Body: rec.body.Bytes()}, nil
}

// bufferedResponse is a minimal in-memory http.ResponseWriter for the
// local fallback path (no httptest dependency outside tests).
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: http.Header{}, status: http.StatusOK}
}

func (r *bufferedResponse) Header() http.Header         { return r.header }
func (r *bufferedResponse) WriteHeader(code int)        { r.status = code }
func (r *bufferedResponse) Write(b []byte) (int, error) { return r.body.Write(b) }

// Figure requests one figure panel from the cluster and decodes it. The
// routing key is the one service.RouteKey gives the body; scale/seed of
// 0 defer to the nodes' defaults and route as emxd's own defaults
// (harness.DefaultScale, seed 1) resolve them.
func (c *Client) Figure(ctx context.Context, fig string, scale int, seed int64) ([]harness.Figure, error) {
	body, _ := json.Marshal(service.FigureRequest{Fig: fig, Scale: scale, Seed: seed}) // strings and numbers always marshal
	key, err := service.RouteKey("/v1/figure", body, harness.DefaultScale, 1)
	if err != nil {
		return nil, err
	}
	res, err := c.Do(ctx, key, "/v1/figure", body)
	if err != nil {
		return nil, err
	}
	if res.Status != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(res.Body, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("node %s: %s", res.Node, e.Error)
		}
		return nil, fmt.Errorf("node %s: HTTP %d", res.Node, res.Status)
	}
	var fr service.FigureResponse
	if err := json.Unmarshal(res.Body, &fr); err != nil {
		return nil, fmt.Errorf("node %s: bad figure response: %w", res.Node, err)
	}
	return fr.Figures, nil
}
