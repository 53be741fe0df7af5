package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"emx/internal/labd"
	"emx/internal/labd/service"
	"emx/internal/metrics"
	"emx/internal/ring"
)

// sweepPanels is a small cross-section of the paper's figure panels —
// chosen among the cheap-at-minimum-grid panels so the failover sweep
// stays fast under -race in CI.
var sweepPanels = []string{"6a", "6c", "7a", "7c", "model"}

type testCluster struct {
	servers  []*service.Server
	backends []*httptest.Server
	members  *Membership
	gateway  *Gateway
	front    *httptest.Server
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv, ts := newNode(t)
		tc.servers = append(tc.servers, srv)
		tc.backends = append(tc.backends, ts)
		urls[i] = ts.URL
	}
	tc.members = NewMembership(urls, MembershipOptions{})
	tc.members.ProbeAll()
	tc.gateway = NewGateway(tc.members, GatewayOptions{
		Scale:  hugeScale,
		Seed:   1,
		Client: ClientOptions{RetryBackoff: time.Millisecond},
	})
	tc.front = httptest.NewServer(tc.gateway.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

func postFigure(t *testing.T, base, fig string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(service.FigureRequest{Fig: fig, Scale: hugeScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/figure", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestGatewayFailoverSweep is the cluster acceptance test: panel output
// through a 3-node gateway is byte-identical to a single emxd node,
// including when one node is killed mid-sweep — requests fail over and
// the sweep completes without client-visible errors.
func TestGatewayFailoverSweep(t *testing.T) {
	// Single-node baseline.
	_, solo := newNode(t)
	baseline := map[string][]byte{}
	for _, fig := range sweepPanels {
		resp, b := postFigure(t, solo.URL, fig)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline %s: HTTP %d", fig, resp.StatusCode)
		}
		baseline[fig] = b
	}

	tc := newTestCluster(t, 3)

	// Pick the victim so the kill always matters, wherever the ring puts
	// the panels for this run's random ports: a node that owns two panels
	// (five panels on three nodes guarantee one) dies after serving the
	// first and before the second. The first keeps it in the sweep; the
	// second must fail over to a live node.
	r := ring.New(tc.members.Members())
	victim, kill := "", -1
	served := map[string]bool{}
	for i, fig := range sweepPanels {
		owner := r.Owner(service.FigureKey(fig, hugeScale, 1))
		if served[owner] {
			victim, kill = owner, i
			break
		}
		served[owner] = true
	}
	if kill < 0 {
		t.Fatalf("no node owns two of the %d panels on %d nodes", len(sweepPanels), len(tc.backends))
	}
	var victimSrv *httptest.Server
	for _, b := range tc.backends {
		if b.URL == victim {
			victimSrv = b
		}
	}

	nodesSeen := map[string]bool{}
	for i, fig := range sweepPanels {
		if i == kill {
			// Kill the owner mid-sweep — hard close, connections refused.
			victimSrv.Close()
		}
		resp, b := postFigure(t, tc.front.URL, fig)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway %s: HTTP %d: %s", fig, resp.StatusCode, b)
		}
		if !bytes.Equal(b, baseline[fig]) {
			t.Fatalf("panel %s through the gateway differs from single-node output:\n%s\nvs\n%s", fig, b, baseline[fig])
		}
		nodesSeen[resp.Header.Get(NodeHeader)] = true
	}
	if len(nodesSeen) < 2 {
		t.Errorf("all panels answered by %v; rendezvous hashing did not spread the sweep", nodesSeen)
	}

	// The dead owner is passively marked down and the failover counters
	// moved — the failover was real, not a lucky routing miss.
	if tc.members.IsHealthy(victim) {
		t.Error("killed node still marked healthy after serving the sweep")
	}
	if !nodesSeen[victim] {
		t.Errorf("victim %s served no panel before it was killed", victim)
	}
	if tc.gateway.Registry().Snapshot()["emxcluster_failovers_total"] == 0 {
		t.Error("no failover counted despite the victim owning a panel served after the kill")
	}

	// Same sweep again: every panel must now be served without touching
	// the dead node, still byte-identical.
	for _, fig := range sweepPanels {
		resp, b := postFigure(t, tc.front.URL, fig)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(b, baseline[fig]) {
			t.Fatalf("post-failure panel %s: HTTP %d or bytes differ", fig, resp.StatusCode)
		}
	}
}

// newReplicatedCluster is newTestCluster with R-way cache replication.
// Every backend listener is bound before any node is built, so each
// node's replica ring holds the whole member set from construction.
func newReplicatedCluster(t *testing.T, n, replicas int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewUnstartedServer(nil)
		tc.backends = append(tc.backends, ts)
		urls[i] = "http://" + ts.Listener.Addr().String()
	}
	for i, ts := range tc.backends {
		srv := service.New(service.Options{
			Scale: hugeScale,
			Seed:  1,
			Replication: service.ReplicationOptions{
				Replicas: replicas, Self: urls[i], Peers: urls,
			},
		})
		ts.Config.Handler = srv.Handler()
		ts.Start()
		t.Cleanup(func() { ts.Close(); srv.Close() })
		tc.servers = append(tc.servers, srv)
	}
	tc.members = NewMembership(urls, MembershipOptions{})
	tc.members.ProbeAll()
	tc.gateway = NewGateway(tc.members, GatewayOptions{
		Scale:  hugeScale,
		Seed:   1,
		Client: ClientOptions{RetryBackoff: time.Millisecond, Replicas: replicas},
	})
	tc.front = httptest.NewServer(tc.gateway.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

// TestGatewayReplicatedSweepOwnerKill is the tentpole acceptance test:
// a 3-node gateway sweep with R=2 replication is byte-identical to
// single-node output, and killing a panel's owner between sweeps costs
// zero recomputations — every previously cached point is served from a
// replica copy (pushed or peer-filled), asserted via the survivors'
// execution counters.
func TestGatewayReplicatedSweepOwnerKill(t *testing.T) {
	// Single-node baseline.
	_, solo := newNode(t)
	baseline := map[string][]byte{}
	for _, fig := range sweepPanels {
		resp, b := postFigure(t, solo.URL, fig)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline %s: HTTP %d", fig, resp.StatusCode)
		}
		baseline[fig] = b
	}

	tc := newReplicatedCluster(t, 3, 2)
	for _, fig := range sweepPanels {
		resp, b := postFigure(t, tc.front.URL, fig)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replicated sweep %s: HTTP %d: %s", fig, resp.StatusCode, b)
		}
		if !bytes.Equal(b, baseline[fig]) {
			t.Fatalf("replicated panel %s differs from single-node output", fig)
		}
	}
	for i, srv := range tc.servers {
		if !srv.FlushReplication(5 * time.Second) {
			t.Fatalf("node %d replication queue did not drain", i)
		}
	}

	// Kill the owner of a panel it served in the first sweep. Its cache
	// dies with it; only the pushed replica copies remain.
	victim := ring.New(tc.members.Members()).Owner(service.FigureKey(sweepPanels[0], hugeScale, 1))
	victimIdx := -1
	for i, b := range tc.backends {
		if b.URL == victim {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		t.Fatalf("owner %s is not a backend", victim)
	}
	tc.backends[victimIdx].Close()

	survivorRuns := func() uint64 {
		var total uint64
		for i, srv := range tc.servers {
			if i != victimIdx {
				total += srv.Scheduler().RunsExecuted()
			}
		}
		return total
	}
	before := survivorRuns()

	// Full re-sweep: byte-identical again, zero new executions — the
	// dead owner's panels are reassembled entirely from replica copies.
	for _, fig := range sweepPanels {
		resp, b := postFigure(t, tc.front.URL, fig)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill sweep %s: HTTP %d: %s", fig, resp.StatusCode, b)
		}
		if !bytes.Equal(b, baseline[fig]) {
			t.Fatalf("post-kill panel %s differs from single-node output", fig)
		}
	}
	if got := survivorRuns(); got != before {
		t.Fatalf("owner kill recomputed %d previously cached points", got-before)
	}
	var fills, stores float64
	for i, srv := range tc.servers {
		if i == victimIdx {
			continue
		}
		snap := srv.Registry().Snapshot()
		fills += snap["emxd_cache_replica_fills_total"]
		stores += snap["emxd_cache_replica_stores_total"]
	}
	if stores == 0 {
		t.Error("survivors accepted no replica pushes")
	}
	if fills == 0 {
		t.Error("no peer fills despite a failed-over panel sweep")
	}
}

// TestGatewayShardsRunCaches: single points route by RunIdentity hash,
// so each run executes on exactly one node and repeats are cache hits
// on that owner — the LRU caches shard instead of duplicating.
func TestGatewayShardsRunCaches(t *testing.T) {
	tc := newTestCluster(t, 3)
	reqs := []service.RunRequest{
		{Workload: "bitonic", P: 4, H: 2, N: 64 << 10},
		{Workload: "fft", P: 4, H: 2, N: 64 << 10},
		{Workload: "spmv", P: 4, H: 1, N: 64 << 20}, // large N: spmv needs a real matrix even at hugeScale
		{Workload: "bitonic", P: 8, H: 4, N: 128 << 10},
		{Workload: "fft", P: 8, H: 1, N: 128 << 10},
	}
	nodeFor := map[string]string{}
	for round := 0; round < 2; round++ {
		for i, rr := range reqs {
			body, _ := json.Marshal(rr)
			resp, err := http.Post(tc.front.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var rres service.RunResponse
			if err := json.NewDecoder(resp.Body).Decode(&rres); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("run %d: HTTP %d", i, resp.StatusCode)
			}
			node := resp.Header.Get(NodeHeader)
			if prev, ok := nodeFor[rres.Key]; ok && prev != node {
				t.Errorf("run %s moved from %s to %s with a stable member set", rres.Key[:8], prev, node)
			}
			nodeFor[rres.Key] = node
			if round == 1 && rres.Source != "cached" {
				t.Errorf("repeat of run %d was %q on its owner, want cached", i, rres.Source)
			}
		}
	}

	// Total executions across the cluster == number of distinct runs:
	// nothing ran twice, nothing was duplicated across shards.
	var started uint64
	for _, srv := range tc.servers {
		started += srv.Scheduler().Stats().Started
	}
	if started != uint64(len(reqs)) {
		t.Errorf("cluster executed %d runs for %d distinct requests", started, len(reqs))
	}
}

func TestGatewayStatusAndMetrics(t *testing.T) {
	tc := newTestCluster(t, 3)
	postFigure(t, tc.front.URL, "6a")

	resp, err := http.Get(tc.front.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Members != 3 || st.Healthy != 3 || len(st.Nodes) != 3 {
		t.Fatalf("cluster status %+v", st)
	}
	for _, n := range st.Nodes {
		if n.QueueCap == 0 {
			t.Errorf("node %s has no probed load in status", n.URL)
		}
	}

	mresp, err := http.Get(tc.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"emxcluster_attempts_total",
		"emxcluster_members 3",
		"emxcluster_members_healthy 3",
		`emxcluster_responses_total{code="200"}`,
		"# TYPE emxcluster_request_seconds histogram",
	} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("gateway /metrics missing %q", want)
		}
	}

	// Nodes saw the traffic as cluster-forwarded.
	var forwarded float64
	for _, srv := range tc.servers {
		forwarded += srv.Registry().Snapshot()["emxd_forwarded_requests_total"]
	}
	if forwarded == 0 {
		t.Error("no node counted a forwarded request")
	}
}

func TestGatewayValidationPassThrough(t *testing.T) {
	tc := newTestCluster(t, 2)
	body, _ := json.Marshal(service.RunRequest{Workload: "quicksort", P: 4, H: 1, N: 1024})
	resp, err := http.Post(tc.front.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 from gateway-side validation", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
		t.Fatal("validation error lost its message through the gateway")
	}
}

// TestGatewayRejectsBadBodiesPromptly: the gateway resolves every body
// with the nodes' own resolver, so a p that once made the size clamp
// spin forever must come back as a prompt 400 here too, as must an
// unknown panel, a negative figure scale, an unknown profile format and
// a negative slice width, and an oversized body as a 413; none is
// forwarded to a node.
func TestGatewayRejectsBadBodiesPromptly(t *testing.T) {
	tc := newTestCluster(t, 2)
	client := &http.Client{Timeout: 5 * time.Second}
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"overflowing p", "/v1/run", `{"workload":"fft","p":4611686018427387905,"h":1,"n":1024}`, http.StatusBadRequest},
		{"overflowing p profile", "/v1/profile", `{"workload":"fft","p":4611686018427387905,"h":1,"n":1024}`, http.StatusBadRequest},
		{"oversized figure", "/v1/figure", `{"fig":"6a","pad":"` + strings.Repeat("x", service.MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"unknown panel", "/v1/figure", `{"fig":"bogus"}`, http.StatusBadRequest},
		{"negative figure scale", "/v1/figure", `{"fig":"6a","scale":-4}`, http.StatusBadRequest},
		{"unknown profile format", "/v1/profile", `{"workload":"fft","p":4,"h":2,"n":65536,"format":"flamegraph"}`, http.StatusBadRequest},
		{"negative slice width", "/v1/profile", `{"workload":"fft","p":4,"h":2,"n":65536,"slice_cycles":-1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := client.Post(tc.front.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	for _, srv := range tc.servers {
		if got := srv.Registry().Snapshot()["emxd_forwarded_requests_total"]; got != 0 {
			t.Fatalf("a node received %v forwarded requests", got)
		}
	}
}

// TestGatewayRoutesPanelNamesCaseInsensitively: a node reads a panel
// name case-insensitively, so the gateway routes "6A" to the node that
// served "6a", where every point of the panel is already cached.
func TestGatewayRoutesPanelNamesCaseInsensitively(t *testing.T) {
	tc := newTestCluster(t, 3)
	started := func() (n uint64) {
		for _, srv := range tc.servers {
			n += srv.Scheduler().Stats().Started
		}
		return n
	}
	for _, fig := range []string{"6a", "6c", "7a", "7c"} {
		resp, b := postFigure(t, tc.front.URL, fig)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", fig, resp.StatusCode, b)
		}
		before := started()
		upper := strings.ToUpper(fig)
		resp2, b2 := postFigure(t, tc.front.URL, upper)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", upper, resp2.StatusCode, b2)
		}
		if a, b := resp.Header.Get(NodeHeader), resp2.Header.Get(NodeHeader); a != b {
			t.Errorf("%s routed to %s, %s to %s", fig, a, upper, b)
		}
		if n := started() - before; n != 0 {
			t.Errorf("%s after %s executed %d simulations, want 0", upper, fig, n)
		}
	}
}

// TestGatewayRoutesProfile: /v1/profile goes through the gateway to the
// point's owning node and comes back as a raw emxprof artifact with the
// node and source headers attached.
func TestGatewayRoutesProfile(t *testing.T) {
	tc := newTestCluster(t, 2)
	body, err := json.Marshal(service.ProfileRequest{
		RunRequest: service.RunRequest{Workload: "bitonic", P: 4, H: 2, N: 64 << 10, Scale: hugeScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.front.URL+"/v1/profile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get(NodeHeader) == "" {
		t.Error("missing cluster node header")
	}
	if got := resp.Header.Get(service.SourceHeader); got != "executed" {
		t.Errorf("source %q, want executed", got)
	}
	var prof struct {
		Version string `json:"version"`
		P       int    `json:"p"`
	}
	if err := json.Unmarshal(raw, &prof); err != nil {
		t.Fatalf("profile body not JSON: %v", err)
	}
	if prof.Version != "emxprof/v1" || prof.P != 4 {
		t.Fatalf("bad profile header %+v", prof)
	}

	// Repeat request: routed to the same owner, served from its profile
	// cache.
	resp2, err := http.Post(tc.front.URL+"/v1/profile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	io.Copy(io.Discard, resp2.Body)
	if got := resp2.Header.Get(service.SourceHeader); got != "cache" {
		t.Errorf("repeat source %q, want cache", got)
	}
	if a, b := resp.Header.Get(NodeHeader), resp2.Header.Get(NodeHeader); a != b {
		t.Errorf("repeat routed to %s, first to %s", b, a)
	}
}

// TestGatewayRelaysDeadlineHeader: the gateway forwards an incoming
// X-Emx-Deadline to the owning node byte-for-byte unchanged, so the
// node sheds exactly when the original caller gives up. An expired
// deadline surfaces to the gateway's caller as the node's 503.
func TestGatewayRelaysDeadlineHeader(t *testing.T) {
	tc := newTestCluster(t, 2)
	body, err := json.Marshal(service.RunRequest{Workload: "fft", P: 4, H: 2, N: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}

	// Future deadline: served normally, header relayed intact.
	deadline := time.Now().Add(time.Hour) //emx:hostclock test fixture deadline
	req, err := http.NewRequest(http.MethodPost, tc.front.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(service.DeadlineHeader, service.FormatDeadline(deadline))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}

	// The relay is exact: RequestDeadline(gateway request) re-encodes to
	// the identical header value the client stamps on the routed hop.
	relayed := service.FormatDeadline(service.RequestDeadline(req))
	if relayed != service.FormatDeadline(deadline) {
		t.Fatalf("gateway would re-stamp %q, caller sent %q", relayed, service.FormatDeadline(deadline))
	}

	// Expired deadline: the node sheds, and the gateway passes the 503 +
	// Retry-After through untouched.
	req, err = http.NewRequest(http.MethodPost, tc.front.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(service.DeadlineHeader, service.FormatDeadline(time.Unix(1, 0)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline through gateway: status %d", resp.StatusCode)
	}
}

// TestReplicaPushesFollowClientCandidates is DESIGN §14's agreement
// contract with member lists spelled the way flags are typed: blanks,
// empty entries, trailing slashes, and a different order on the nodes
// and on the gateway. After a run executes on its owner, the nodes that
// hold it are exactly the first R candidates the client ranks for its
// key, so the node the client fails over to is the node the owner
// pushed to — and no push is addressed to the owner itself.
func TestReplicaPushesFollowClientCandidates(t *testing.T) {
	const n, replicas, points = 3, 2, 24
	var backends []*httptest.Server
	var urls []string
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		backends = append(backends, ts)
		urls = append(urls, "http://"+ts.Listener.Addr().String())
	}
	peersFlag := " " + urls[0] + "/, ," + urls[1] + " ," + urls[2] + "/"
	nodesFlag := urls[2] + "," + urls[0] + "/ , " + urls[1] + "/,"
	var servers []*service.Server
	for i, ts := range backends {
		srv := service.New(service.Options{
			Scale: hugeScale,
			Seed:  1,
			Replication: service.ReplicationOptions{
				Replicas: replicas,
				Self:     ring.ParseMembers(urls[i] + "/ ")[0],
				Peers:    ring.ParseMembers(peersFlag),
			},
		})
		ts.Config.Handler = srv.Handler()
		ts.Start()
		t.Cleanup(func() { ts.Close(); srv.Close() })
		servers = append(servers, srv)
	}
	members := NewMembership(ring.ParseMembers(nodesFlag), MembershipOptions{})
	client := NewClient(members, ClientOptions{Replicas: replicas})

	var keys []string
	for i := 0; i < points; i++ {
		req := service.RunRequest{Workload: "fft", P: 2 << (i % 3), H: 1 + i/3, N: 64 << 10}
		ps, scale, err := service.ResolveRun(req, hugeScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		key := ps.Key(scale)
		res, err := client.Do(context.Background(), key, "/v1/run", body)
		if err != nil || res.Status != http.StatusOK {
			t.Fatalf("point %d: %v", i, err)
		}
		keys = append(keys, key)
	}
	for i, srv := range servers {
		if !srv.FlushReplication(5 * time.Second) {
			t.Fatalf("node %d: pushes did not drain", i)
		}
	}
	var pushes, pushErrors float64
	for _, srv := range servers {
		snap := srv.Registry().Snapshot()
		pushes += snap["emxd_cache_replica_pushes_total"]
		pushErrors += snap["emxd_cache_replica_push_errors_total"]
	}
	if pushes != points || pushErrors != 0 {
		t.Fatalf("pushes %v (errors %v), want %d (0)", pushes, pushErrors, points)
	}
	for _, key := range keys {
		want := client.candidates(key)[:replicas]
		var holders []string
		for _, u := range want {
			if _, ok := servers[slices.Index(urls, u)].Scheduler().CacheGet(key); ok {
				holders = append(holders, u)
			}
		}
		if len(holders) != replicas {
			t.Fatalf("key %s: candidates %v, holders among them %v", key, want, holders)
		}
	}
}

// TestGatewayClientDisconnectLeavesNodeQueue: a caller that hangs up at
// the gateway cancels the routed attempt, so the owning node's handler
// leaves its queued job and the node never executes it.
func TestGatewayClientDisconnectLeavesNodeQueue(t *testing.T) {
	srv := service.New(service.Options{Scale: hugeScale, Seed: 1, Sched: labd.Options{Workers: 1}})
	node := httptest.NewServer(srv.Handler())
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(func() { releaseOnce(); node.Close(); srv.Close() })
	members := NewMembership([]string{node.URL}, MembershipOptions{})
	gw := NewGateway(members, GatewayOptions{Scale: hugeScale, Seed: 1})
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)

	sched := srv.Scheduler()
	held := make(chan struct{})
	go sched.Do("held-by-worker", func() (*metrics.Run, error) {
		close(held)
		<-release
		return &metrics.Run{Label: "stub"}, nil
	})
	<-held

	body, err := json.Marshal(service.RunRequest{Workload: "fft", P: 4, H: 2, N: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/run", bytes.NewReader(body))
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
	wait := func(ok func(labd.Stats) bool) bool {
		deadline := time.Now().Add(5 * time.Second) //emx:hostclock test polling
		for !ok(sched.Stats()) {
			if time.Now().After(deadline) { //emx:hostclock
				return false
			}
			time.Sleep(time.Millisecond) //emx:hostclock
		}
		return true
	}
	if !wait(func(st labd.Stats) bool { return st.QueueDepth == 1 }) {
		t.Fatalf("the routed run never queued on the node: %+v", sched.Stats())
	}
	cancel()
	<-sent
	// Give the hang-up time to cross both hops; then free the worker
	// either way, so a handler that stayed shows up as a second start.
	wait(func(st labd.Stats) bool { return st.ShedCanceled == 1 })
	releaseOnce()
	wait(func(st labd.Stats) bool { return st.Completed+st.Failed+st.ShedAbandoned == 2 })
	if st := sched.Stats(); st.ShedCanceled != 1 || st.ShedAbandoned != 1 || st.Started != 1 {
		t.Fatalf("node: ShedCanceled=%d ShedAbandoned=%d Started=%d, want 1, 1, 1",
			st.ShedCanceled, st.ShedAbandoned, st.Started)
	}
}
