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

// DigestHeader carries the hex SHA-256 of a replicated entry's body on
// a POST /v1/cache/put and on a 200 answer to POST /v1/cache/get. The
// entry's key travels beside it in RunKeyHeader.
const DigestHeader = "X-Emx-Digest"

// encodeEntry is the one encoding of a replicated cache entry: the
// run's own JSON bytes, which are the body on the wire, and the hex
// SHA-256 of exactly those bytes.
func encodeEntry(run *metrics.Run) (body []byte, digest string, err error) {
	body, err = json.Marshal(run)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(body)
	return body, hex.EncodeToString(sum[:]), nil
}

// decodeEntry checks a received entry before it can reach a cache: the
// key must be present and body must hash to digest. Only then is the
// run decoded, once.
func decodeEntry(key, digest string, body []byte) (*metrics.Run, error) {
	if key == "" {
		return nil, fmt.Errorf("replicated entry missing key")
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != digest {
		return nil, fmt.Errorf("replication digest mismatch for %s: got %s, want %s", key, got, digest)
	}
	var run metrics.Run
	if err := json.Unmarshal(body, &run); err != nil {
		return nil, fmt.Errorf("replicated entry for %s undecodable: %w", key, err)
	}
	return &run, nil
}

// readEntry reads a replicated entry's body, at most MaxEntryBytes of
// it; a longer body is a *http.MaxBytesError. w is the handler's
// ResponseWriter on the put side (so the server closes the connection
// after an oversized body) and nil on the fill side.
func readEntry(w http.ResponseWriter, body io.ReadCloser) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, body, MaxEntryBytes))
}

// pushTask is one queued replica push: an encoded entry bound for one
// peer.
type pushTask struct {
	key    string
	node   string
	body   []byte
	digest string
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
		mismatches: reg.Counter("emxd_cache_replica_digest_mismatch_total", "replicated entries rejected by the digest check"),
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
	body, digest, err := encodeEntry(run)
	if err != nil {
		r.pushErrors.Inc()
		return
	}
	for _, node := range targets {
		r.mu.Lock()
		r.pending++
		r.mu.Unlock()
		select {
		case r.queue <- pushTask{key: key, node: node, body: body, digest: digest}:
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
	req.Header.Set(RunKeyHeader, t.key)
	req.Header.Set(DigestHeader, t.digest)
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
// {"stored":...}, a fill answer refused before its body was read) are
// small; draining them lets the connection return to the pool.
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
	for _, node := range targets {
		if run := r.fetch(ctx, node, key); run != nil {
			r.fills.Inc()
			return run
		}
	}
	r.fillMisses.Inc()
	return nil
}

// fetch asks node for key's entry. An answer for another key, one
// longer than MaxEntryBytes or one that fails decodeEntry is refused;
// only a digest or decode failure counts as a mismatch.
func (r *replicator) fetch(ctx context.Context, node, key string) *metrics.Run {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/cache/get", nil)
	if err != nil {
		return nil
	}
	req.Header.Set(RunKeyHeader, key)
	res, err := r.http.Do(req)
	if err != nil {
		return nil
	}
	defer drainClose(res.Body)
	if res.StatusCode != http.StatusOK || res.Header.Get(RunKeyHeader) != key {
		return nil
	}
	body, err := readEntry(nil, res.Body)
	if err != nil {
		return nil
	}
	run, err := decodeEntry(key, res.Header.Get(DigestHeader), body)
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
