package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"emx/internal/metrics"
	"emx/internal/sim"
)

// unstartedURL binds a test server's listener without serving, so its
// base URL can go into every node's member set before any node exists.
func unstartedURL(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	return ts, "http://" + ts.Listener.Addr().String()
}

// startNode builds a server with opts, serves it on ts and registers
// the cleanup.
func startNode(t *testing.T, ts *httptest.Server, opts Options) *Server {
	t.Helper()
	srv := New(opts)
	ts.Config.Handler = srv.Handler()
	ts.Start()
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv
}

// newReplicatedPair builds two servers with R=2 replication wired to
// each other. Both listeners are bound first, so each node knows the
// whole member set from construction, as emxd does from its flags.
func newReplicatedPair(t *testing.T) (a, b *Server, tsA, tsB *httptest.Server) {
	t.Helper()
	tsA, urlA := unstartedURL(t)
	tsB, urlB := unstartedURL(t)
	peers := []string{urlA, urlB}
	mk := func(ts *httptest.Server, self string) *Server {
		return startNode(t, ts, Options{
			Scale:       hugeScale,
			Seed:        1,
			Replication: ReplicationOptions{Replicas: 2, Self: self, Peers: peers},
		})
	}
	return mk(tsA, urlA), mk(tsB, urlB), tsA, tsB
}

// TestReplicationPushStoresOnPeer: executing a run on one node pushes
// the content-addressed result to its peer, which then serves the same
// request from cache without executing anything.
func TestReplicationPushStoresOnPeer(t *testing.T) {
	a, b, tsA, tsB := newReplicatedPair(t)
	req := RunRequest{Workload: "fft", P: 4, H: 2, N: 64 << 10}

	first := decode[RunResponse](t, postJSON(t, tsA.URL+"/v1/run", req))
	if first.Source != "executed" {
		t.Fatalf("first run source %q, want executed", first.Source)
	}
	if !a.FlushReplication(5 * time.Second) {
		t.Fatal("push queue did not drain")
	}

	if _, ok := b.Scheduler().CacheGet(first.Key); !ok {
		t.Fatalf("peer does not hold replicated key %s", first.Key)
	}
	if got := a.Registry().Snapshot()["emxd_cache_replica_pushes_total"]; got != 1 {
		t.Errorf("pushes on owner = %v, want 1", got)
	}
	if got := b.Registry().Snapshot()["emxd_cache_replica_stores_total"]; got != 1 {
		t.Errorf("stores on peer = %v, want 1", got)
	}

	second := decode[RunResponse](t, postJSON(t, tsB.URL+"/v1/run", req))
	if second.Source != "cached" {
		t.Fatalf("peer served source %q, want cached", second.Source)
	}
	if second.MakespanCycles != first.MakespanCycles || second.Key != first.Key {
		t.Fatalf("replicated result differs: %+v vs %+v", second, first)
	}
	if got := b.Scheduler().RunsExecuted(); got != 0 {
		t.Fatalf("peer executed %d runs for a replicated point", got)
	}
}

// TestPeerFillOnMiss: a node that never received the push still serves
// the point without executing — the cache miss triggers a bounded peer
// fill from the replica that has it.
func TestPeerFillOnMiss(t *testing.T) {
	// The holder runs unreplicated: it serves /v1/cache/get but pushes
	// nothing, so the filler's copy can only arrive via the fill path.
	holder := New(Options{Scale: hugeScale, Seed: 1})
	tsHolder := httptest.NewServer(holder.Handler())
	t.Cleanup(func() { tsHolder.Close(); holder.Close() })

	tsFiller, fillerURL := unstartedURL(t)
	filler := startNode(t, tsFiller, Options{
		Scale: hugeScale,
		Seed:  1,
		Replication: ReplicationOptions{
			Replicas: 2, Self: fillerURL, Peers: []string{tsHolder.URL, fillerURL},
		},
	})

	req := RunRequest{Workload: "bitonic", P: 4, H: 2, N: 64 << 10}
	first := decode[RunResponse](t, postJSON(t, tsHolder.URL+"/v1/run", req))
	if first.Source != "executed" {
		t.Fatalf("holder source %q", first.Source)
	}

	filled := decode[RunResponse](t, postJSON(t, tsFiller.URL+"/v1/run", req))
	if filled.Source != "replicated" {
		t.Fatalf("fill source %q, want replicated", filled.Source)
	}
	if filled.MakespanCycles != first.MakespanCycles || filled.Key != first.Key {
		t.Fatalf("filled result differs: %+v vs %+v", filled, first)
	}
	if got := filler.Scheduler().RunsExecuted(); got != 0 {
		t.Fatalf("filler executed %d runs, want 0", got)
	}
	if got := filler.Registry().Snapshot()["emxd_cache_replica_fills_total"]; got != 1 {
		t.Errorf("fills = %v, want 1", got)
	}

	// Once filled, the copy is local: a repeat is a plain cache hit.
	again := decode[RunResponse](t, postJSON(t, tsFiller.URL+"/v1/run", req))
	if again.Source != "cached" {
		t.Errorf("post-fill repeat source %q, want cached", again.Source)
	}
}

// TestFillMissFallsBackToExecute: when no replica holds the point, the
// fill attempt counts a miss and the node executes normally — fill is
// an optimization, never a correctness dependency.
func TestFillMissFallsBackToExecute(t *testing.T) {
	_, b, _, tsB := newReplicatedPair(t)
	req := RunRequest{Workload: "spmv", P: 4, H: 2, N: 64 << 20}
	resp := decode[RunResponse](t, postJSON(t, tsB.URL+"/v1/run", req))
	if resp.Source != "executed" {
		t.Fatalf("source %q, want executed after a fill miss", resp.Source)
	}
	snap := b.Registry().Snapshot()
	if snap["emxd_cache_replica_fill_misses_total"] != 1 {
		t.Errorf("fill misses = %v, want 1", snap["emxd_cache_replica_fill_misses_total"])
	}
	if snap["emxd_cache_replica_fills_total"] != 0 {
		t.Errorf("fills = %v, want 0", snap["emxd_cache_replica_fills_total"])
	}
	if got := b.Scheduler().RunsExecuted(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

// postEntry sends one replicated entry to /v1/cache/put the way a
// push does: body as given, key and digest in headers.
func postEntry(t *testing.T, url, key, digest string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/cache/put", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RunKeyHeader, key)
	req.Header.Set(DigestHeader, digest)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCachePutDigestVerification: /v1/cache/put checks the body's
// digest before storing. A tampered entry is rejected with 400 and a
// counter bump, and never reaches the cache.
func TestCachePutDigestVerification(t *testing.T) {
	srv := New(Options{
		Scale:       hugeScale,
		Seed:        1,
		Replication: ReplicationOptions{Replicas: 2},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	body, digest, err := encodeEntry(&metrics.Run{Label: "stub", P: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Tampered body: the digest no longer matches.
	resp := postEntry(t, ts.URL, "the-key", digest, []byte(`{"Label":"forged"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered entry got %d, want 400", resp.StatusCode)
	}
	if _, ok := srv.Scheduler().CacheGet("the-key"); ok {
		t.Fatal("tampered entry reached the cache")
	}
	if got := srv.Registry().Snapshot()["emxd_cache_replica_digest_mismatch_total"]; got != 1 {
		t.Errorf("digest mismatches = %v, want 1", got)
	}

	// Keyless entry: rejected before any digest work.
	resp = postEntry(t, ts.URL, "", digest, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("keyless entry got %d, want 400", resp.StatusCode)
	}

	// The honest entry stores.
	resp = postEntry(t, ts.URL, "the-key", digest, body)
	stored := decode[map[string]bool](t, resp)
	if resp.StatusCode != http.StatusOK || !stored["stored"] {
		t.Fatalf("valid entry: status %d, stored %v", resp.StatusCode, stored)
	}
	if run, ok := srv.Scheduler().CacheGet("the-key"); !ok || run.Label != "stub" {
		t.Fatalf("stored entry wrong: %v, %v", run, ok)
	}
}

// TestCacheGetServesRunBytes: a /v1/cache/get answer is the run's own
// json.Marshal bytes, not indented, with the key and the SHA-256 of
// exactly that body in its headers.
func TestCacheGetServesRunBytes(t *testing.T) {
	srv, ts := newTestServer(t)
	run := &metrics.Run{Label: "stub", P: 4, H: 2, PEs: make([]metrics.PE, 4)}
	srv.Scheduler().CachePut("the-key", run)
	want, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/cache/get", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RunKeyHeader, "the-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("body is not json.Marshal(run):\ngot  %s\nwant %s", got, want)
	}
	sum := sha256.Sum256(got)
	if d := resp.Header.Get(DigestHeader); d != hex.EncodeToString(sum[:]) {
		t.Fatalf("%s %q is not the SHA-256 of the body", DigestHeader, d)
	}
	if k := resp.Header.Get(RunKeyHeader); k != "the-key" {
		t.Fatalf("%s %q, want the-key", RunKeyHeader, k)
	}
}

// fillFrom builds a replicator whose only peer serves h.
func fillFrom(t *testing.T, h http.HandlerFunc) *replicator {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	r := newReplicator(ReplicationOptions{
		Replicas: 2,
		Self:     "http://self.invalid",
		Peers:    []string{"http://self.invalid", ts.URL},
	}, metrics.NewRegistry())
	t.Cleanup(r.close)
	return r
}

// TestFillRefusesOversizedAnswer: a peer's 200 answer longer than
// MaxEntryBytes is not read past the bound and fills nothing, even
// though it is an honest entry for the key asked; it counts as a fill
// miss, not a digest mismatch.
func TestFillRefusesOversizedAnswer(t *testing.T) {
	huge := &metrics.Run{Label: strings.Repeat("x", MaxEntryBytes), P: 4, H: 2}
	body, digest, err := encodeEntry(huge)
	if err != nil {
		t.Fatal(err)
	}
	r := fillFrom(t, func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set(RunKeyHeader, req.Header.Get(RunKeyHeader))
		w.Header().Set(DigestHeader, digest)
		w.Write(body)
	})
	if run := r.fill(context.Background(), "big"); run != nil {
		t.Fatalf("oversized answer filled a run with a %d-byte label", len(run.Label))
	}
	if got := r.fillMisses.Value(); got != 1 {
		t.Errorf("fill misses = %v, want 1", got)
	}
	if got := r.mismatches.Value(); got != 0 {
		t.Errorf("digest mismatches = %v, want 0", got)
	}
	if got := r.fills.Value(); got != 0 {
		t.Errorf("fills = %v, want 0", got)
	}
}

// TestFillRefusesOtherKey: an honest entry answered under a key other
// than the one asked for is refused.
func TestFillRefusesOtherKey(t *testing.T) {
	body, digest, err := encodeEntry(&metrics.Run{Label: "stub", P: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := fillFrom(t, func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set(RunKeyHeader, "some-other-key")
		w.Header().Set(DigestHeader, digest)
		w.Write(body)
	})
	if run := r.fill(context.Background(), "asked"); run != nil {
		t.Fatalf("answer for another key filled %+v", run)
	}
	if got := r.fillMisses.Value(); got != 1 {
		t.Errorf("fill misses = %v, want 1", got)
	}
}

// widestRun is the largest run a node can cache: MaxP PEs with every
// counter at its largest value.
func widestRun() *metrics.Run {
	const m, u = sim.Time(math.MaxInt64), uint64(math.MaxUint64)
	pe := metrics.PE{
		Times:       metrics.Breakdown{Compute: m, Overhead: m, Switch: m, Comm: m},
		RemoteReads: u, RemoteWrites: u, Invokes: u, SyncsSent: u,
		Spills: u, Dispatches: u, ServicedDMA: u, ServicedEXU: u,
	}
	for k := range pe.Switches {
		pe.Switches[k] = u
	}
	run := &metrics.Run{
		Label: "bitonic", P: MaxP, H: MaxH, N: math.MaxInt, PaperN: math.MaxInt,
		Makespan: m, PacketsSent: u, PacketsHops: u, NetQueueDelay: m,
		SimEvents: u, HostElapsedSecs: math.MaxFloat64,
	}
	for i := 0; i < MaxP; i++ {
		run.PEs = append(run.PEs, pe)
	}
	return run
}

// TestCacheEndpointsBoundBodies: /v1/cache/put accepts the widest real
// entry but refuses a larger one with 413 and stores nothing.
func TestCacheEndpointsBoundBodies(t *testing.T) {
	srv, ts := newTestServer(t)
	put := func(key string, run *metrics.Run) *http.Response {
		t.Helper()
		body, digest, err := encodeEntry(run)
		if err != nil {
			t.Fatal(err)
		}
		resp := postEntry(t, ts.URL, key, digest, body)
		resp.Body.Close()
		return resp
	}

	if resp := put("widest", widestRun()); resp.StatusCode != http.StatusOK {
		t.Fatalf("widest entry at MaxP: status %d, want 200", resp.StatusCode)
	}
	if _, ok := srv.Scheduler().CacheGet("widest"); !ok {
		t.Fatal("widest entry was not stored")
	}

	huge := &metrics.Run{Label: strings.Repeat("x", MaxEntryBytes), P: 4, H: 2}
	if resp := put("huge", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized entry: status %d, want 413", resp.StatusCode)
	}
	if _, ok := srv.Scheduler().CacheGet("huge"); ok {
		t.Fatal("oversized entry reached the cache")
	}
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestReplicationReusesPeerConnections: sequential peer fills that miss
// (404) and sequential pushes all ride one kept-alive connection, so a
// cold cluster does not open a connection per replication request.
func TestReplicationReusesPeerConnections(t *testing.T) {
	peer := New(Options{Scale: hugeScale, Seed: 1})
	ts := httptest.NewUnstartedServer(peer.Handler())
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	t.Cleanup(func() { ts.Close(); peer.Close() })

	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	r := newReplicator(ReplicationOptions{
		Replicas:   2,
		Self:       "http://self.invalid",
		Peers:      []string{"http://self.invalid", ts.URL},
		HTTPClient: &http.Client{Transport: tr},
	}, metrics.NewRegistry())
	t.Cleanup(r.close)

	for i := 0; i < 50; i++ {
		if run := r.fill(context.Background(), fmt.Sprintf("missing-%d", i)); run != nil {
			t.Fatalf("fill %d found a run on an empty peer", i)
		}
	}
	if got := ln.accepted.Load(); got != 1 {
		t.Fatalf("50 missed fills opened %d connections, want 1", got)
	}
	body, digest, err := encodeEntry(&metrics.Run{Label: "stub", P: 4, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.push(pushTask{key: "pushed", node: ts.URL, body: body, digest: digest})
	}
	if got := ln.accepted.Load(); got != 1 {
		t.Fatalf("50 fills and 50 pushes opened %d connections, want 1", got)
	}
	if got := r.pushErrors.Value(); got != 0 {
		t.Fatalf("push errors = %v, want 0", got)
	}
}

// TestCacheIndexIsNotServed: the member set is fixed at start-up, so no
// node walks a peer's key list; /v1/cache/index does not exist.
func TestCacheIndexIsNotServed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/cache/index")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/cache/index: status %d, want 404", resp.StatusCode)
	}
}

// TestProfileStaysOutOfRunCache: a profiled point runs on the worker
// pool but never enters the run cache, so it is neither pushed to nor
// filled from a replica, and a peer profiles the same point by running
// it on its own pool.
func TestProfileStaysOutOfRunCache(t *testing.T) {
	a, b, tsA, tsB := newReplicatedPair(t)
	req := ProfileRequest{RunRequest: RunRequest{Workload: "bitonic", P: 4, H: 2, N: 64 << 10}}

	resp := postJSON(t, tsA.URL+"/v1/profile", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile on A: status %d", resp.StatusCode)
	}
	if !a.FlushReplication(5 * time.Second) {
		t.Fatal("push queue did not drain")
	}
	snap := a.Registry().Snapshot()
	if pushes, misses := snap["emxd_cache_replica_pushes_total"], snap["emxd_cache_replica_fill_misses_total"]; pushes != 0 || misses != 0 {
		t.Fatalf("profile on A: pushes=%v fill_misses=%v, want 0 and 0", pushes, misses)
	}
	if n := a.Scheduler().CacheLen(); n != 0 {
		t.Fatalf("A's run cache holds %d entries after a profile, want 0", n)
	}
	if n := b.Scheduler().CacheLen(); n != 0 {
		t.Fatalf("B's run cache holds %d entries after a profile on A, want 0", n)
	}
	if n := a.Scheduler().RunsExecuted(); n != 1 {
		t.Fatalf("A executed %d runs for one profile, want 1", n)
	}

	resp = postJSON(t, tsB.URL+"/v1/profile", req)
	resp.Body.Close()
	if got := resp.Header.Get(SourceHeader); resp.StatusCode != http.StatusOK || got != "executed" {
		t.Fatalf("profile on B: status %d source %q, want 200 executed", resp.StatusCode, got)
	}
	if n := b.Scheduler().RunsExecuted(); n != 1 {
		t.Fatalf("B executed %d runs on its pool for one profile, want 1", n)
	}
}
