package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"emx/internal/harness"
	"emx/internal/labd/service"
	"emx/internal/metrics"
)

// GatewayOptions configures a Gateway.
type GatewayOptions struct {
	// Scale and Seed are the defaults used to resolve requests that omit
	// them into routing keys. They MUST match the member nodes' defaults,
	// or the gateway would route a defaulted request to a different owner
	// than the key the node caches it under. Zero values select the same
	// defaults emxd uses (harness.DefaultScale, seed 1).
	Scale int
	Seed  int64
	// Client tunes the failover policy. Client.Registry is ignored — the
	// gateway wires its own registry so /metrics shows one coherent set.
	Client ClientOptions
}

// Gateway federates the membership's emxd nodes behind the same API
// one node serves: /v1/run, /v1/figure, and /v1/profile are routed by
// content key to the owning node (with failover), /v1/status reports
// the cluster view, and /metrics exposes the routing counters. Because
// every node
// computes byte-identical results for a given run identity, clients
// cannot tell the gateway from a single overgrown emxd — except that it
// survives node deaths.
type Gateway struct {
	opts    GatewayOptions
	client  *Client
	members *Membership
	reg     *metrics.Registry
	mux     *http.ServeMux
	start   time.Time

	responses func(code int) *metrics.Counter
	routed    func(node string) *metrics.Counter
	latency   *metrics.Histogram
}

// NewGateway builds a gateway over the membership.
func NewGateway(m *Membership, opts GatewayOptions) *Gateway {
	if opts.Scale <= 0 {
		opts.Scale = harness.DefaultScale
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	reg := metrics.NewRegistry()
	opts.Client.Registry = reg
	g := &Gateway{
		opts:    opts,
		client:  NewClient(m, opts.Client),
		members: m,
		reg:     reg,
		mux:     http.NewServeMux(),
		start:   time.Now(), //emx:hostclock gateway-uptime observability
	}
	g.latency = reg.Histogram("emxcluster_request_seconds",
		"gateway request latency including routing, retries, and hedges", metrics.DefLatencyBuckets)
	g.responses = func(code int) *metrics.Counter {
		return reg.Labeled("emxcluster_responses_total",
			"gateway responses by status code", "code", fmt.Sprintf("%d", code))
	}
	g.routed = func(node string) *metrics.Counter {
		return reg.Labeled("emxcluster_routed_requests_total",
			"requests answered, by member node", "node", node)
	}
	reg.Gauge("emxcluster_members", "member nodes tracked",
		func() float64 { return float64(len(m.Members())) })
	reg.Gauge("emxcluster_members_healthy", "member nodes currently healthy",
		func() float64 { return float64(len(m.Healthy())) })
	g.mux.HandleFunc("/v1/run", g.handleRun)
	g.mux.HandleFunc("/v1/figure", g.handleFigure)
	g.mux.HandleFunc("/v1/profile", g.handleProfile)
	g.mux.HandleFunc("/v1/status", g.handleStatus)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	return g
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return http.HandlerFunc(g.serve) }

// Client exposes the gateway's routing client (shared counters).
func (g *Gateway) Client() *Client { return g.client }

// Registry exposes the gateway's metrics registry.
func (g *Gateway) Registry() *metrics.Registry { return g.reg }

func (g *Gateway) serve(w http.ResponseWriter, r *http.Request) {
	start := time.Now() //emx:hostclock request-latency observability
	sw := &gatewayStatusWriter{ResponseWriter: w, code: http.StatusOK}
	g.mux.ServeHTTP(sw, r)
	g.responses(sw.code).Inc()
	g.latency.Observe(time.Since(start).Seconds()) //emx:hostclock
}

type gatewayStatusWriter struct {
	http.ResponseWriter
	code int
}

func (w *gatewayStatusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// NodeHeader names the member node that answered a routed request, so
// operators can see sharding without reading metrics.
const NodeHeader = "X-Emx-Cluster-Node"

func (g *Gateway) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}

// route sends body down the cluster client and relays the terminal
// response — status, backpressure headers, and body — unchanged, so the
// gateway is byte-transparent with respect to a single node. The
// request's context goes along: the client re-stamps the identical
// DeadlineHeader on each routed attempt, so the owning node sheds
// exactly when the original caller gives up, and a caller that hangs up
// here cancels the attempt, so it leaves the node's queue too.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, key, path string, body []byte) {
	ctx, cancel := service.RequestContext(r)
	defer cancel()
	res, err := g.client.Do(ctx, key, path, body)
	if err != nil {
		g.writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: %w", err))
		return
	}
	g.routed(res.Node).Inc()
	if ct := res.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	// Relay the node's own X-Emx-* annotations (run key, profile source)
	// untouched; the gateway adds only its routing header below. Each
	// header is set independently, so visit order cannot matter.
	for name, vals := range res.Header { //emx:orderinvariant
		if strings.HasPrefix(name, "X-Emx-") && len(vals) > 0 {
			w.Header().Set(name, vals[0])
		}
	}
	w.Header().Set(NodeHeader, res.Node)
	w.WriteHeader(res.Status)
	w.Write(res.Body)
}

func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		g.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		g.writeError(w, status, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	return body, true
}

// handleRun routes one simulation point by its RunIdentity hash — the
// same key the owning node caches the result under, which is what makes
// the per-node LRU caches shard instead of duplicate.
func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req service.RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	ps, scale, err := service.ResolveRun(req, g.opts.Scale, g.opts.Seed)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, err)
		return
	}
	g.route(w, r, ps.Key(scale), "/v1/run", body)
}

// handleProfile routes a profiled point by the same RunIdentity hash
// /v1/run uses, so a point's profile lands on the node whose caches
// already hold (or will hold) that point — and repeat profile requests
// hit that node's profile cache.
func (g *Gateway) handleProfile(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req service.ProfileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	ps, scale, err := service.ResolveRun(req.RunRequest, g.opts.Scale, g.opts.Seed)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, err)
		return
	}
	g.route(w, r, ps.Key(scale), "/v1/profile", body)
}

// handleFigure routes a whole panel by its figure key: every run the
// panel fans into lands on the panel's owner, keeping its sweep cache
// together.
func (g *Gateway) handleFigure(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req service.FigureRequest
	if err := json.Unmarshal(body, &req); err != nil {
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	scale := req.Scale
	if scale == 0 {
		scale = g.opts.Scale
	}
	seed := req.Seed
	if seed == 0 {
		seed = g.opts.Seed
	}
	g.route(w, r, FigureKey(req.Fig, scale, seed), "/v1/figure", body)
}

// ClusterStatus is the gateway's GET /v1/status: the membership view
// plus routing counters.
type ClusterStatus struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Members       int                `json:"members"`
	Healthy       int                `json:"healthy"`
	DefaultScale  int                `json:"default_scale"`
	DefaultSeed   int64              `json:"default_seed"`
	Replicas      int                `json:"replicas,omitempty"`
	Nodes         []NodeStatus       `json:"nodes"`
	Counters      map[string]float64 `json:"counters"`
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	nodes := g.members.Snapshot()
	healthy := 0
	for _, n := range nodes {
		if n.Healthy {
			healthy++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(ClusterStatus{
		UptimeSeconds: time.Since(g.start).Seconds(), //emx:hostclock
		Members:       len(nodes),
		Healthy:       healthy,
		DefaultScale:  g.opts.Scale,
		DefaultSeed:   g.opts.Seed,
		Replicas:      g.opts.Client.Replicas,
		Nodes:         nodes,
		Counters:      g.reg.Snapshot(),
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.reg.WriteProm(w)
}
