package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"emx/internal/cluster"
	"emx/internal/labd"
	"emx/internal/labd/service"
)

const (
	labNodes    = 3
	labReplicas = 2
	labWorkers  = 2       // scheduler workers per node
	hitCache    = 1 << 15 // serve-hit cache entries per node (emxd -cache): no run is evicted
	// coldCache is serve-cold's cache entries per node. Every host fills
	// it within the cold phase, so the resident set stops growing with
	// however many points the host completes.
	coldCache  = 2048
	serveScale = 1 << 20 // clamps every served point to its minimum grid
)

// lab is the serving topology the benchmark owns: three emxd nodes with
// R=2 cache replication behind a gateway, each on its own loopback
// listener. In a traced run every handler and listener is wrapped, so
// each layer is measured from outside.
type lab struct {
	nodes   []*service.Server
	urls    []string
	gw      *cluster.Gateway
	gwURL   string
	members *cluster.Membership
	servers []*http.Server

	nodeLns []*countingListener
	gwLn    *countingListener
	nodeT   []*handlerTimer // nil entries when untraced
	gwT     *handlerTimer
}

// startLab binds every listener first, so each node's replicator knows
// the whole member set from construction, then starts the nodes and the
// gateway.
func startLab(seed int64, traced bool, cacheSize int) (*lab, error) {
	l := &lab{}
	var lns []net.Listener
	for i := 0; i <= labNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range lns {
				prev.Close()
			}
			return nil, fmt.Errorf("listening: %w", err)
		}
		lns = append(lns, ln)
	}
	for _, ln := range lns[:labNodes] {
		l.urls = append(l.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns[:labNodes] {
		srv := service.New(service.Options{
			Scale: serveScale,
			Seed:  seed,
			Sched: labd.Options{Workers: labWorkers, CacheSize: cacheSize},
			Replication: service.ReplicationOptions{
				Replicas: labReplicas, Self: l.urls[i], Peers: l.urls,
			},
		})
		l.nodes = append(l.nodes, srv)
		cl := &countingListener{Listener: ln}
		l.nodeLns = append(l.nodeLns, cl)
		t := newHandlerTimer(srv.Handler(), traced)
		l.nodeT = append(l.nodeT, t)
		l.serve(cl, t.handler())
	}
	l.members = cluster.NewMembership(l.urls, cluster.MembershipOptions{})
	l.gw = cluster.NewGateway(l.members, cluster.GatewayOptions{
		Scale: serveScale, Seed: seed,
		Client: cluster.ClientOptions{Replicas: labReplicas},
	})
	l.gwLn = &countingListener{Listener: lns[labNodes]}
	l.gwURL = "http://" + lns[labNodes].Addr().String()
	l.gwT = newHandlerTimer(l.gw.Handler(), traced)
	l.serve(l.gwLn, l.gwT.handler())
	return l, nil
}

func (l *lab) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	l.servers = append(l.servers, hs)
	go hs.Serve(ln)
}

// close stops the gateway and nodes: listeners and connections first,
// then each node's scheduler and replication loop.
func (l *lab) close() {
	for _, hs := range l.servers {
		hs.Close()
	}
	l.members.Close()
	for _, n := range l.nodes {
		n.Close()
	}
}

// flush waits until every node's queued replica pushes were attempted.
func (l *lab) flush() error {
	for i, n := range l.nodes {
		if !n.FlushReplication(10 * time.Second) {
			return fmt.Errorf("node %d: replica pushes did not drain", i)
		}
	}
	return nil
}

// tracing switches the handler timers on or off.
func (l *lab) tracing(on bool) {
	for _, t := range append([]*handlerTimer{l.gwT}, l.nodeT...) {
		if t != nil {
			t.on.Store(on)
		}
	}
}

// labSnap is every counter the lab exposes through public entry points,
// at one instant: labd.Stats and the replication counters of each node,
// the gateway client's Stats, accepted connections, and handler records.
type labSnap struct {
	sched    labd.Stats
	repl     map[string]float64
	client   cluster.Stats
	gwConns  int64
	nodeConn int64
	gwRecs   int
	nodeRecs []int
	at       time.Time
}

var replCounters = map[string]string{
	"repl.pushes":            "emxd_cache_replica_pushes_total",
	"repl.push_errors":       "emxd_cache_replica_push_errors_total",
	"repl.stores":            "emxd_cache_replica_stores_total",
	"repl.queue_drops":       "emxd_cache_replica_queue_drops_total",
	"repl.fills":             "emxd_cache_replica_fills_total",
	"repl.fill_misses":       "emxd_cache_replica_fill_misses_total",
	"repl.digest_mismatches": "emxd_cache_replica_digest_mismatch_total",
}

func (l *lab) snap() labSnap {
	s := labSnap{repl: map[string]float64{}, client: l.gw.Client().Stats(), at: time.Now()}
	for i, n := range l.nodes {
		st := n.Scheduler().Stats()
		s.sched.Started += st.Started
		s.sched.CacheHits += st.CacheHits
		s.sched.Coalesced += st.Coalesced
		s.sched.Filled += st.Filled
		s.sched.Rejected += st.Rejected
		s.sched.ShedDeadline += st.ShedDeadline
		s.sched.ShedAbandoned += st.ShedAbandoned
		s.sched.ShedCanceled += st.ShedCanceled
		s.sched.SimEvents += st.SimEvents
		s.sched.SimCycles += st.SimCycles
		s.sched.HostSeconds += st.HostSeconds
		s.sched.Workers += st.Workers
		reg := n.Registry().Snapshot()
		for name, prom := range replCounters {
			s.repl[name] += reg[prom]
		}
		s.nodeConn += l.nodeLns[i].accepts.Load()
		s.nodeRecs = append(s.nodeRecs, l.nodeT[i].count())
	}
	s.gwConns = l.gwLn.accepts.Load()
	s.gwRecs = l.gwT.count()
	return s
}

// layerMetrics reports the serving layers between two snapshots: labd
// scheduling, the service handlers, replication, the gateway and the
// HTTP transport. distinct counts the distinct keys the window executed.
func (l *lab) layerMetrics(r *report, a, b labSnap, distinct int) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	exec := d(a.sched.Started, b.sched.Started)
	r.set("labd.exec", exec)
	r.set("labd.exec_distinct", float64(distinct))
	r.set("labd.useful_exec_ratio", ratio(float64(distinct), exec))
	r.set("labd.cache_hits", d(a.sched.CacheHits, b.sched.CacheHits))
	r.set("labd.coalesced", d(a.sched.Coalesced, b.sched.Coalesced))
	r.set("labd.filled", d(a.sched.Filled, b.sched.Filled))
	r.set("labd.shed", d(a.sched.Rejected+a.sched.ShedDeadline+a.sched.ShedAbandoned+a.sched.ShedCanceled,
		b.sched.Rejected+b.sched.ShedDeadline+b.sched.ShedAbandoned+b.sched.ShedCanceled))
	hostS := b.sched.HostSeconds - a.sched.HostSeconds
	wall := b.at.Sub(a.at).Seconds()
	r.set("labd.worker_busy_ratio", ratio(hostS, float64(b.sched.Workers)*wall))
	execMS := 1000 * ratio(hostS, exec)
	r.set("labd.exec_ms_mean", execMS)
	r.set("sim.ns_per_event", 1e9*ratio(hostS, d(a.sched.SimEvents, b.sched.SimEvents)))
	for name := range replCounters {
		r.set(name, b.repl[name]-a.repl[name])
	}
	cs := b.client.Sub(a.client)
	r.set("cluster.retries", float64(cs.Retries))
	r.set("cluster.failovers", float64(cs.Failovers))
	r.set("cluster.hedges", float64(cs.Hedges))

	// Handler records of the window.
	var (
		preWrite, encode, put, get []float64
		bytesOut, nodeReqs         int
		fwdTotal                   time.Duration
		execPre                    []float64
	)
	for i, t := range l.nodeT {
		for _, rec := range t.between(a.nodeRecs[i], b.nodeRecs[i]) {
			nodeReqs++
			switch rec.path {
			case "/v1/cache/put":
				put = append(put, msf(rec.total))
				continue
			case "/v1/cache/get":
				get = append(get, msf(rec.total))
				continue
			}
			preWrite = append(preWrite, msf(rec.preWrite))
			encode = append(encode, msf(rec.total-rec.preWrite))
			bytesOut += rec.bytes
			if rec.forwarded {
				fwdTotal += rec.total
			}
			if rec.executed {
				execPre = append(execPre, msf(rec.preWrite))
			}
		}
	}
	enc := summarize(encode)
	r.set("service.pre_write_ms_p50", summarize(preWrite).P50)
	r.set("service.encode_ms_p50", enc.P50)
	r.set("service.encode_ms_p99", enc.Tail)
	r.set("service.resp_bytes_mean", ratio(float64(bytesOut), float64(len(preWrite))))
	r.set("repl.put_handler_ms", summarize(put).P50)
	r.set("repl.get_handler_ms", summarize(get).P50)
	queueWait := 0.0
	if len(execPre) > 0 {
		queueWait = mean(execPre) - execMS
	}
	r.set("labd.queue_wait_ms", queueWait)

	var gwTimes []float64
	var gwTotal time.Duration
	for _, rec := range l.gwT.between(a.gwRecs, b.gwRecs) {
		gwTimes = append(gwTimes, msf(rec.total))
		gwTotal += rec.total
	}
	r.set("gateway.handler_ms_p50", summarize(gwTimes).P50)
	r.set("gateway.self_ms", ratio(msf(gwTotal-fwdTotal), float64(len(gwTimes))))
	r.set("http.gateway_conns_per_1k", 1000*ratio(float64(b.gwConns-a.gwConns), float64(len(gwTimes))))
	r.set("http.node_conns_per_1k", 1000*ratio(float64(b.nodeConn-a.nodeConn), float64(nodeReqs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func msf(d time.Duration) float64 { return float64(d) / 1e6 }

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// reqRecord is one handled request as seen from around the handler.
type reqRecord struct {
	path      string
	forwarded bool          // relayed by the gateway
	total     time.Duration // handler start to return
	preWrite  time.Duration // handler start to the first WriteHeader or Write
	bytes     int
	executed  bool // the body reports "source": "executed"
}

// handlerTimer wraps an http.Handler and, while on, records every
// request it serves. A nil timer (untraced run) adds no wrapper.
type handlerTimer struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	recs []reqRecord
}

func newHandlerTimer(next http.Handler, traced bool) *handlerTimer {
	if !traced {
		return &handlerTimer{next: next}
	}
	t := &handlerTimer{next: next}
	t.on.Store(true)
	return t
}

// handler is the wrapped handler, or the bare one for an untraced run's
// timer, which never switches on.
func (t *handlerTimer) handler() http.Handler {
	if !t.on.Load() {
		return t.next
	}
	return t
}

func (t *handlerTimer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

func (t *handlerTimer) between(i, j int) []reqRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]reqRecord(nil), t.recs[i:j]...)
}

var executedMarker = []byte(`"source": "executed"`)

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	tw := &timingWriter{ResponseWriter: w, start: time.Now()}
	t.next.ServeHTTP(tw, r)
	end := time.Now()
	if tw.first.IsZero() {
		tw.first = end
	}
	rec := reqRecord{
		path:      r.URL.Path,
		forwarded: r.Header.Get(service.ForwardedByHeader) != "",
		total:     end.Sub(tw.start),
		preWrite:  tw.first.Sub(tw.start),
		bytes:     tw.bytes,
		executed:  tw.executed,
	}
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

// timingWriter notes when a handler first writes and what it wrote.
type timingWriter struct {
	http.ResponseWriter
	start, first time.Time
	bytes        int
	executed     bool
}

func (w *timingWriter) mark() {
	if w.first.IsZero() {
		w.first = time.Now()
	}
}

func (w *timingWriter) WriteHeader(code int) {
	w.mark()
	w.ResponseWriter.WriteHeader(code)
}

func (w *timingWriter) Write(b []byte) (int, error) {
	w.mark()
	w.bytes += len(b)
	if !w.executed && bytes.Contains(b, executedMarker) {
		w.executed = true
	}
	return w.ResponseWriter.Write(b)
}
