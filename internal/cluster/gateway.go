package cluster

import (
	"fmt"
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
// every node computes byte-identical results for a given run identity,
// clients cannot tell the gateway from a single overgrown emxd — except
// that it survives node deaths.
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
		"gateway request latency including routing, retries, and failover", metrics.DefLatencyBuckets)
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
	for _, path := range []string{"/v1/run", "/v1/figure", "/v1/profile"} {
		g.mux.HandleFunc(path, g.handleRouted)
	}
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
	g.responses(service.ServeStatus(g.mux, w, r)).Inc()
	g.latency.Observe(time.Since(start).Seconds()) //emx:hostclock
}

// NodeHeader names the member node that answered a routed request, so
// operators can see sharding without reading metrics.
const NodeHeader = "X-Emx-Cluster-Node"

// handleRouted serves /v1/run, /v1/profile and /v1/figure: it reads the
// body, resolves it with service.RouteKey — the defaults and checks a
// node applies — and routes it by that key, so a body every node would
// refuse gets the node's 400 here and is never forwarded. The node's
// terminal response (status, backpressure headers, body) is relayed
// unchanged. The request's context goes along: the client re-stamps the
// identical DeadlineHeader on each attempt, so the owning node sheds
// when the original caller gives up, and a caller that hangs up here
// cancels the attempt, which leaves the node's queue too.
func (g *Gateway) handleRouted(w http.ResponseWriter, r *http.Request) {
	body, ok := service.ReadBody(w, r)
	if !ok {
		return
	}
	key, err := service.RouteKey(r.URL.Path, body, g.opts.Scale, g.opts.Seed)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := service.RequestContext(r)
	defer cancel()
	res, err := g.client.Do(ctx, key, r.URL.Path, body)
	if err != nil {
		service.WriteError(w, http.StatusBadGateway, fmt.Errorf("cluster: %w", err))
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
	service.WriteJSON(w, http.StatusOK, ClusterStatus{
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
