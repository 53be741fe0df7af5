package load

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"emx/internal/labd/service"
)

// faultGate wraps a node's handler with an injectable fault mode:
// pass (normal), delay (added latency before serving), or reject
// (immediate 503 with backpressure headers). The gate sits in front of
// the real service handler, so delayed and rejected requests exercise
// exactly the client paths a slow or saturated node would.
type faultGate struct {
	h http.Handler

	mu    sync.Mutex
	mode  string // "pass" | "delay" | "reject"
	delay time.Duration
}

func (g *faultGate) set(mode string, delay time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mode, g.delay = mode, delay
}

func (g *faultGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	mode, delay := g.mode, g.delay
	g.mu.Unlock()
	switch mode {
	case "delay":
		time.Sleep(delay) //emx:hostclock fault injection: added node latency
	case "reject":
		w.Header().Set("Retry-After", "1")
		http.Error(w, "load: injected overload", http.StatusServiceUnavailable)
		return
	}
	g.h.ServeHTTP(w, r)
}

// LabNode is one in-process emxd node: a real service.Server behind a
// real TCP listener, so killing it produces genuine connection
// refusals and restarting it reuses the same address. The server (and
// its caches) survives kill/restart — only the listener dies, which is
// the failure mode a crashed-and-restarted process approximates for a
// load test.
type LabNode struct {
	srv  *service.Server
	gate *faultGate

	mu      sync.Mutex
	addr    string
	hsrv    *http.Server
	ln      net.Listener
	running bool
}

// URL returns the node's base URL (stable across kill/restart).
func (n *LabNode) URL() string { return "http://" + n.addr }

// Kill closes the node's listener and in-flight connections. Requests
// routed to it fail with connection errors until Restart.
func (n *LabNode) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.running {
		return
	}
	n.running = false
	n.hsrv.Close()
}

// Restart re-listens on the node's recorded address. The old socket
// may linger briefly after Kill, so binding retries for a moment.
func (n *LabNode) Restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.running {
		return nil
	}
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) //emx:hostclock rebind retry after kill
	}
	if err != nil {
		return fmt.Errorf("load: restarting node on %s: %w", n.addr, err)
	}
	n.serveOn(ln)
	return nil
}

// serveOn starts an http.Server on ln. Callers hold n.mu (or own the
// node exclusively during construction).
func (n *LabNode) serveOn(ln net.Listener) {
	n.ln = ln
	n.hsrv = &http.Server{Handler: n.gate}
	n.running = true
	go n.hsrv.Serve(ln)
}

// Delay injects added latency before every response.
func (n *LabNode) Delay(d time.Duration) { n.gate.set("delay", d) }

// Reject makes the node answer 503 + Retry-After to everything.
func (n *LabNode) Reject() { n.gate.set("reject", 0) }

// Clear removes any injected delay/reject fault.
func (n *LabNode) Clear() { n.gate.set("pass", 0) }

// Lab is an in-process cluster of emxd nodes for load and chaos
// testing: real listeners, real HTTP, no external processes.
type Lab struct {
	nodes    []*LabNode
	replicas int
}

// NewLab starts n nodes, each with its own scheduler, on loopback
// listeners. Close the lab to stop them.
//
// When opts.Replication.Replicas > 1 the nodes replicate their run
// caches to each other: every listener is bound before any server is
// built, so each node's replicator knows the full peer URL set (with
// its own URL as Self) from construction.
func NewLab(n int, opts service.Options) (*Lab, error) {
	if n < 1 {
		return nil, fmt.Errorf("load: lab needs at least 1 node, got %d", n)
	}
	l := &Lab{replicas: opts.Replication.Replicas}
	lns := make([]net.Listener, 0, n)
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range lns {
				prev.Close()
			}
			return nil, fmt.Errorf("load: listening for lab node %d: %w", i, err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		o := opts
		if o.Replication.Replicas > 1 {
			o.Replication.Self = urls[i]
			o.Replication.Peers = urls
		}
		srv := service.New(o)
		node := &LabNode{
			srv:  srv,
			gate: &faultGate{h: srv.Handler(), mode: "pass"},
			addr: ln.Addr().String(),
		}
		node.serveOn(ln)
		l.nodes = append(l.nodes, node)
	}
	return l, nil
}

// Server exposes node i's service.Server (replication and scheduler
// introspection for tests and reports).
func (n *LabNode) Server() *service.Server { return n.srv }

// FlushReplication waits until every node's queued replica pushes have
// been attempted, or the timeout lapses (per node). Reports whether all
// queues drained.
func (l *Lab) FlushReplication(timeout time.Duration) bool {
	ok := true
	for _, n := range l.nodes {
		if !n.srv.FlushReplication(timeout) {
			ok = false
		}
	}
	return ok
}

// ReplicationStats sums every node's emxd_cache_replica_* counters,
// or nil when the lab runs unreplicated.
func (l *Lab) ReplicationStats() *ReplicationStats {
	if l.replicas <= 1 {
		return nil
	}
	out := &ReplicationStats{}
	for _, n := range l.nodes {
		snap := n.srv.Registry().Snapshot()
		out.Pushes += uint64(snap["emxd_cache_replica_pushes_total"])
		out.PushErrors += uint64(snap["emxd_cache_replica_push_errors_total"])
		out.Stores += uint64(snap["emxd_cache_replica_stores_total"])
		out.Fills += uint64(snap["emxd_cache_replica_fills_total"])
		out.FillMisses += uint64(snap["emxd_cache_replica_fill_misses_total"])
		out.DigestMismatches += uint64(snap["emxd_cache_replica_digest_mismatch_total"])
		out.QueueDrops += uint64(snap["emxd_cache_replica_queue_drops_total"])
	}
	return out
}

// RunsExecuted sums simulator executions started across every node —
// the number replication acceptance tests diff to prove cached points
// were never recomputed.
func (l *Lab) RunsExecuted() uint64 {
	var total uint64
	for _, n := range l.nodes {
		total += n.srv.Scheduler().RunsExecuted()
	}
	return total
}

// URLs returns every node's base URL in node order.
func (l *Lab) URLs() []string {
	out := make([]string, len(l.nodes))
	for i, n := range l.nodes {
		out[i] = n.URL()
	}
	return out
}

// Node returns node i.
func (l *Lab) Node(i int) (*LabNode, error) {
	if i < 0 || i >= len(l.nodes) {
		return nil, fmt.Errorf("load: no lab node %d (have %d)", i, len(l.nodes))
	}
	return l.nodes[i], nil
}

// Len returns the node count.
func (l *Lab) Len() int { return len(l.nodes) }

// Close kills every node and stops its scheduler.
func (l *Lab) Close() {
	for _, n := range l.nodes {
		n.Kill()
		n.srv.Close()
	}
}
