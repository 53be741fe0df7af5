// Package cluster federates N emxd nodes into one experiment service:
// a rendezvous-hashing ring (internal/ring) routes each
// content-addressed run to an owner node (so the per-node LRU caches
// shard instead of duplicating), a membership layer probes /v1/status and tracks node health and load,
// and a failover-aware client issues requests with per-attempt
// timeouts, bounded retries, hedged second attempts, and graceful
// degradation to any healthy peer — or local in-process execution —
// when the owner is down.
//
// The design practices what the simulated machine preaches: the EM-X
// tolerates remote latency by overlapping useful work with outstanding
// split-phase requests, and the cluster client tolerates slow or dead
// owners by overlapping a hedged request with the outstanding one.
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
// no per-attempt timeout, two retries, 100ms base backoff, hedging
// disabled, no local fallback.
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
	// HedgeDelay, when positive, launches a second request to the
	// next-ranked node if the owner has not answered within it. 0
	// disables time-based hedging.
	HedgeDelay time.Duration
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

// hedgeQueueFraction is the owner's last probed queue fullness at or
// above which a hedge launches immediately instead of after HedgeDelay.
const hedgeQueueFraction = 0.9

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
// hashing with bounded retries, hedging, and failover. Safe for
// concurrent use.
type Client struct {
	members *Membership
	opts    ClientOptions
	http    *http.Client

	attempts    *metrics.Counter
	retries     *metrics.Counter
	failovers   *metrics.Counter
	hedges      *metrics.Counter
	hedgeWins   *metrics.Counter
	hedgeLosses *metrics.Counter
	localRuns   *metrics.Counter
	nodeErrs    func(node string) *metrics.Counter
}

// Stats is a point-in-time snapshot of the client's per-attempt outcome
// counters. Load generators diff two snapshots to report what the
// failover machinery did during a run (the counters themselves also
// expose via the Registry for /metrics).
type Stats struct {
	// Attempts counts every request issued to a member node, including
	// retries and hedges.
	Attempts uint64
	// Retries counts attempts beyond the first for a request.
	Retries uint64
	// Failovers counts requests answered by a node other than the ring
	// owner (including local-fallback rescues).
	Failovers uint64
	// Hedges counts hedged second attempts launched against slow owners;
	// HedgeWins those answered before the owner, HedgeLosses those the
	// owner beat anyway.
	Hedges, HedgeWins, HedgeLosses uint64
	// LocalFallbacks counts requests served by in-process execution
	// after every remote candidate failed.
	LocalFallbacks uint64
}

// Stats returns the client's current outcome counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:       c.attempts.Value(),
		Retries:        c.retries.Value(),
		Failovers:      c.failovers.Value(),
		Hedges:         c.hedges.Value(),
		HedgeWins:      c.hedgeWins.Value(),
		HedgeLosses:    c.hedgeLosses.Value(),
		LocalFallbacks: c.localRuns.Value(),
	}
}

// Sub returns s - o field-wise: the outcomes between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Attempts:       s.Attempts - o.Attempts,
		Retries:        s.Retries - o.Retries,
		Failovers:      s.Failovers - o.Failovers,
		Hedges:         s.Hedges - o.Hedges,
		HedgeWins:      s.HedgeWins - o.HedgeWins,
		HedgeLosses:    s.HedgeLosses - o.HedgeLosses,
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
		members:     m,
		opts:        opts,
		http:        hc,
		attempts:    reg.Counter("emxcluster_attempts_total", "request attempts issued to member nodes"),
		retries:     reg.Counter("emxcluster_retries_total", "attempts beyond the first for a request"),
		failovers:   reg.Counter("emxcluster_failovers_total", "requests answered by a node other than the ring owner"),
		hedges:      reg.Counter("emxcluster_hedges_total", "hedged second attempts launched against slow owners"),
		hedgeWins:   reg.Counter("emxcluster_hedge_wins_total", "hedged attempts that answered before the owner"),
		hedgeLosses: reg.Counter("emxcluster_hedge_losses_total", "hedged attempts the owner answered ahead of"),
		localRuns:   reg.Counter("emxcluster_local_fallback_total", "requests served by local in-process execution"),
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
// fallback. A slow owner is hedged with a concurrent second attempt.
// 503 responses (queue backpressure) wait out the node's Retry-After
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
		node := candidates[i%len(candidates)]
		var (
			res *Result
			err error
		)
		if i == 0 && c.opts.HedgeDelay > 0 && len(candidates) > 1 {
			res, err = c.hedged(ctx, key, path, body, candidates[0], candidates[1])
		} else {
			res, err = c.attempt(ctx, node, path, body)
		}
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

// hedged races the owner against the next-ranked node: the backup
// launches after HedgeDelay — or immediately when the owner's probed
// queue is at least hedgeQueueFraction full — and the first success
// wins. The loser's attempt is cancelled via its context.
func (c *Client) hedged(ctx context.Context, key, path string, body []byte, owner, backup string) (*Result, error) {
	delay := c.opts.HedgeDelay
	if full, ok := c.members.Load(owner); ok && full >= hedgeQueueFraction {
		delay = 0
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res    *Result
		err    error
		backup bool
	}
	results := make(chan outcome, 2)
	try := func(node string, isBackup bool) {
		res, err := c.attempt(ctx, node, path, body)
		results <- outcome{res, err, isBackup}
	}
	go try(owner, false)

	timer := time.NewTimer(delay) //emx:hostclock hedge trigger against a slow owner
	defer timer.Stop()
	launched := false
	pending := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !launched {
				launched = true
				pending++
				c.hedges.Inc()
				go try(backup, true)
			}
		case out := <-results:
			pending--
			if out.err == nil {
				if launched {
					if out.backup {
						c.hedgeWins.Inc()
					} else {
						c.hedgeLosses.Inc()
					}
				}
				return out.res, nil
			}
			var perm errPermanent
			if errors.As(out.err, &perm) {
				return nil, out.err
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if !launched {
				// Owner failed outright before the hedge fired: launch
				// the backup now rather than waiting for the timer.
				launched = true
				pending++
				c.hedges.Inc()
				go try(backup, true)
			} else if pending == 0 {
				return nil, firstErr
			}
		}
	}
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
		// Always drain and close the body — including a hedge loser's —
		// so the transport can reuse the connection instead of leaking
		// it under sustained hedging.
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		if parent.Err() != nil {
			// The parent context ended — the hedge race resolved
			// elsewhere, or the caller gave up. The abort says nothing
			// about this node's health, so don't poison the membership
			// view or the per-node error counters with it.
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

// FigureKey is the routing key of a whole figure panel: all of a
// panel's runs land on one owner, so its sweep caches shard together.
// Single-point /v1/run requests route by their RunIdentity hash
// instead (see service.ResolveRun).
func FigureKey(fig string, scale int, seed int64) string {
	return fmt.Sprintf("figure/%s/scale=%d/seed=%d", fig, scale, seed)
}

// Figure requests one figure panel from the cluster and decodes it.
// scale/seed of 0 defer to the nodes' defaults — but are resolved into
// the routing key as-is, so callers wanting stable routing should pass
// explicit values (the gateway does).
func (c *Client) Figure(ctx context.Context, fig string, scale int, seed int64) ([]harness.Figure, error) {
	body, err := json.Marshal(service.FigureRequest{Fig: fig, Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	res, err := c.Do(ctx, FigureKey(fig, scale, seed), "/v1/figure", body)
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
