package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"emx/internal/metrics"
	"emx/internal/ring"
)

// ReplicationOptions configures N-way replication of the run cache
// across a cluster. Replication is best-effort and asynchronous: it
// never blocks or fails a request, it only makes the cluster's caches
// survive node loss. Correctness needs no coordination — entries are
// content-addressed results of pure functions, so every copy of a key
// is byte-identical, and a digest check on receipt enforces it.
//
// The member set is fixed at construction: a node replicates only when
// Replicas > 1, Self is set and Peers names at least two members.
type ReplicationOptions struct {
	// Replicas is the number of copies per entry, R, counting the copy
	// on the executing node. <= 1 disables replication.
	Replicas int
	// Self is this node's base URL exactly as peers address it (the
	// ring member string).
	Self string
	// Peers is the cluster member set (base URLs, including Self).
	Peers []string
	// HTTPClient overrides the transport (tests); nil uses a default.
	HTTPClient *http.Client
}

const (
	// replicaQueueSize bounds the asynchronous push queue. A full queue
	// drops the push and counts it — never blocks the worker.
	replicaQueueSize = 256
	// pushTimeout bounds one replica push.
	pushTimeout = 2 * time.Second
	// fillTimeout bounds the whole peer-fill attempt on a cache miss;
	// the request's own context tightens it further.
	fillTimeout = time.Second
)

// CacheEnvelope is the wire form of one replicated cache entry, used by
// POST /v1/cache/put and returned by POST /v1/cache/get. Digest is the
// hex SHA-256 of the Run JSON; the receiver recomputes it before
// storing, so a corrupted or version-skewed copy is rejected rather
// than cached.
type CacheEnvelope struct {
	Key    string          `json:"key"`
	Digest string          `json:"digest"`
	Run    json.RawMessage `json:"run"`
}

// cacheGetRequest is the body of POST /v1/cache/get.
type cacheGetRequest struct {
	Key string `json:"key"`
}

// runDigest is the digest both ends compute: hex SHA-256 over the
// run's compacted JSON bytes. Compacting first makes the digest
// whitespace-canonical — HTTP layers that re-encode the envelope (an
// indenting JSON writer re-formats embedded RawMessage bytes) must not
// read as corruption, only real content changes should.
func runDigest(runJSON []byte) string {
	var compact bytes.Buffer
	if err := json.Compact(&compact, runJSON); err == nil {
		runJSON = compact.Bytes()
	}
	sum := sha256.Sum256(runJSON)
	return hex.EncodeToString(sum[:])
}

// envelope serializes a run into its replication wire form.
func envelope(key string, run *metrics.Run) (CacheEnvelope, error) {
	rj, err := json.Marshal(run)
	if err != nil {
		return CacheEnvelope{}, err
	}
	return CacheEnvelope{Key: key, Digest: runDigest(rj), Run: rj}, nil
}

// openEnvelope verifies an envelope's digest and decodes the run.
func openEnvelope(env CacheEnvelope) (*metrics.Run, error) {
	if env.Key == "" {
		return nil, fmt.Errorf("replication envelope missing key")
	}
	if got := runDigest(env.Run); got != env.Digest {
		return nil, fmt.Errorf("replication digest mismatch for %s: got %s, want %s", env.Key, got, env.Digest)
	}
	var run metrics.Run
	if err := json.Unmarshal(env.Run, &run); err != nil {
		return nil, fmt.Errorf("replication envelope for %s undecodable: %w", env.Key, err)
	}
	return &run, nil
}

// pushTask is one queued replica push: a pre-marshaled envelope bound
// for one peer.
type pushTask struct {
	key  string
	node string
	body []byte
}

// replicator implements the two replication paths: asynchronous push
// on cache fill and bounded-deadline peer fill on cache miss. It is
// wired into the scheduler via labd.Options.Fill / labd.Options.OnFill,
// and its store side is served by the Server's /v1/cache/* handlers.
// Its ring and self are fixed at construction; mu guards only pending.
type replicator struct {
	replicas int
	self     string
	ring     *ring.Ring
	http     *http.Client

	mu      sync.Mutex
	pending int // queued + in-flight pushes, for quiesce

	queue chan pushTask
	stop  chan struct{}
	done  chan struct{}

	pushes     *metrics.Counter
	pushErrors *metrics.Counter
	stores     *metrics.Counter
	fills      *metrics.Counter
	fillMisses *metrics.Counter
	mismatches *metrics.Counter
	drops      *metrics.Counter
}

func newReplicator(o ReplicationOptions, reg *metrics.Registry) *replicator {
	hc := o.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	r := &replicator{
		replicas: o.Replicas,
		self:     o.Self,
		ring:     ring.New(o.Peers),
		http:     hc,
		queue:    make(chan pushTask, replicaQueueSize),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),

		pushes:     reg.Counter("emxd_cache_replica_pushes_total", "replica cache entries pushed to peers"),
		pushErrors: reg.Counter("emxd_cache_replica_push_errors_total", "replica pushes that failed (peer down or rejected)"),
		stores:     reg.Counter("emxd_cache_replica_stores_total", "replica cache entries accepted from peers"),
		fills:      reg.Counter("emxd_cache_replica_fills_total", "cache misses served by fetching a peer replica"),
		fillMisses: reg.Counter("emxd_cache_replica_fill_misses_total", "peer-fill attempts that found no replica"),
		mismatches: reg.Counter("emxd_cache_replica_digest_mismatch_total", "replica envelopes rejected by the digest check"),
		drops:      reg.Counter("emxd_cache_replica_queue_drops_total", "replica pushes dropped because the queue was full"),
	}
	reg.Gauge("emxd_cache_replicas", "configured replica count per cache entry",
		func() float64 { return float64(r.replicas) })
	go r.pushLoop()
	return r
}

// enabled reports whether the node can replicate at all: R > 1, self
// known, and at least one peer besides self. The Server wires the
// push and fill hooks only when it does.
func (r *replicator) enabled() bool {
	return r.replicas > 1 && r.self != "" && r.ring.Len() > 1
}

// replicaTargets returns key's replica set excluding self, in ranked
// order.
func (r *replicator) replicaTargets(key string) []string {
	set := r.ring.ReplicaSet(key, r.replicas)
	out := make([]string, 0, len(set))
	for _, m := range set {
		if m != r.self {
			out = append(out, m)
		}
	}
	return out
}

// offer pushes key's entry toward the other members of its replica
// set, asynchronously and best-effort: a full queue drops, a dead peer
// just counts an error.
func (r *replicator) offer(key string, run *metrics.Run) {
	targets := r.replicaTargets(key)
	if len(targets) == 0 {
		return
	}
	env, err := envelope(key, run)
	if err != nil {
		r.pushErrors.Inc()
		return
	}
	body, err := json.Marshal(env)
	if err != nil {
		r.pushErrors.Inc()
		return
	}
	for _, node := range targets {
		r.mu.Lock()
		r.pending++
		r.mu.Unlock()
		select {
		case r.queue <- pushTask{key: key, node: node, body: body}:
		default:
			r.mu.Lock()
			r.pending--
			r.mu.Unlock()
			r.drops.Inc()
		}
	}
}

// pushLoop drains the push queue: one POST /v1/cache/put per task.
func (r *replicator) pushLoop() {
	defer close(r.done)
	for {
		select {
		case t := <-r.queue:
			r.push(t)
			r.mu.Lock()
			r.pending--
			r.mu.Unlock()
		case <-r.stop:
			return
		}
	}
}

func (r *replicator) push(t pushTask) {
	ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.node+"/v1/cache/put", bytes.NewReader(t.body))
	if err != nil {
		r.pushErrors.Inc()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := r.http.Do(req)
	if err != nil {
		r.pushErrors.Inc()
		return
	}
	defer drainClose(res.Body)
	if res.StatusCode >= 300 {
		r.pushErrors.Inc()
		return
	}
	r.pushes.Inc()
}

// drainLimit bounds how much of a response body drainClose reads. Peer
// replies that are not read to the end (a 404 fill miss, a push's
// {"stored":...}, the newline after a decoded envelope) are a few
// bytes; draining them lets the connection return to the pool.
const drainLimit = 64 << 10

// drainClose reads what is left of a peer's response body, up to
// drainLimit, and closes it, so the transport can reuse the connection.
func drainClose(body io.ReadCloser) {
	// A failed drain only costs the connection its reuse.
	_, _ = io.Copy(io.Discard, io.LimitReader(body, drainLimit))
	body.Close()
}

// fill is the scheduler's Fill hook: on a cache miss, ask the other
// members of key's replica set for their copy before paying an
// execution. The whole attempt is bounded by fillTimeout and never
// outlives the request's ctx.
func (r *replicator) fill(ctx context.Context, key string) *metrics.Run {
	targets := r.replicaTargets(key)
	if len(targets) == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, fillTimeout)
	defer cancel()
	body, err := json.Marshal(cacheGetRequest{Key: key})
	if err != nil {
		return nil
	}
	for _, node := range targets {
		if run := r.fetch(ctx, node, key, body); run != nil {
			r.fills.Inc()
			return run
		}
	}
	r.fillMisses.Inc()
	return nil
}

func (r *replicator) fetch(ctx context.Context, node, key string, body []byte) *metrics.Run {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/cache/get", bytes.NewReader(body))
	if err != nil {
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := r.http.Do(req)
	if err != nil {
		return nil
	}
	defer drainClose(res.Body)
	if res.StatusCode != http.StatusOK {
		return nil
	}
	var env CacheEnvelope
	if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
		return nil
	}
	if env.Key != key {
		return nil
	}
	run, err := openEnvelope(env)
	if err != nil {
		r.mismatches.Inc()
		return nil
	}
	return run
}

// quiesce blocks until every queued push has been attempted, or the
// timeout lapses. Test and shutdown support; the serving path never
// waits on replication.
func (r *replicator) quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout) //emx:hostclock test/shutdown synchronization, not a serving path
	for {
		r.mu.Lock()
		n := r.pending
		r.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) { //emx:hostclock
			return false
		}
		time.Sleep(time.Millisecond) //emx:hostclock
	}
}

func (r *replicator) close() {
	close(r.stop)
	<-r.done
}
