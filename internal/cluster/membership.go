package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"emx/internal/labd/service"
	"emx/internal/ring"
)

// MembershipOptions configures the health prober.
type MembershipOptions struct {
	// ProbeInterval is the healthy-node probe period. <= 0 disables the
	// background prober entirely: health then comes from explicit
	// ProbeAll calls and from the client's passive failure marking,
	// which is what the CLI and the deterministic tests use.
	ProbeInterval time.Duration
}

const (
	// probeTimeout bounds one /v1/status probe.
	probeTimeout = 2 * time.Second
	// maxProbeBackoff caps the down-node probe backoff.
	maxProbeBackoff = 30 * time.Second
)

// NodeStatus is one member's observed state.
type NodeStatus struct {
	URL           string  `json:"url"`
	Healthy       bool    `json:"healthy"`
	Failures      int     `json:"consecutive_failures"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	LastError     string  `json:"last_error,omitempty"`
}

type member struct {
	url      string
	healthy  bool
	failures int // consecutive probe/request failures
	load     NodeStatus
	lastErr  string
}

// Membership tracks the health and load of a fixed set of emxd nodes.
// The member set and its rendezvous ring are built once, in
// NewMembership. Nodes start healthy (optimistically: the first request finds out) and
// move down/up from probe results and the client's passive marking.
// Down nodes are probed with exponential backoff so a dead node costs
// ProbeInterval work only logarithmically often, and recover the moment
// a probe succeeds.
type Membership struct {
	opts MembershipOptions
	http *http.Client
	ring *ring.Ring
	urls []string // ring members: sorted, deduplicated

	mu    sync.Mutex
	nodes map[string]*member

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewMembership tracks the given node base URLs. Call Start to launch
// the background prober (when ProbeInterval > 0) and Close to stop it.
func NewMembership(urls []string, opts MembershipOptions) *Membership {
	rg := ring.New(urls)
	m := &Membership{
		opts:  opts,
		http:  &http.Client{Timeout: probeTimeout},
		ring:  rg,
		urls:  rg.Members(),
		nodes: make(map[string]*member, rg.Len()),
		stop:  make(chan struct{}),
	}
	for _, u := range m.urls {
		m.nodes[u] = &member{url: u, healthy: true}
	}
	return m
}

// Members returns every tracked node URL in sorted order — the ring's
// member set.
func (m *Membership) Members() []string { return append([]string(nil), m.urls...) }

// Healthy returns the currently-healthy node URLs in sorted order.
func (m *Membership) Healthy() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.urls))
	for _, u := range m.urls {
		if m.nodes[u].healthy {
			out = append(out, u)
		}
	}
	return out
}

// IsHealthy reports whether url is tracked and currently healthy.
func (m *Membership) IsHealthy(url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[url]
	return ok && n.healthy
}

// Snapshot returns every node's status, sorted by URL.
func (m *Membership) Snapshot() []NodeStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeStatus, 0, len(m.urls))
	for _, u := range m.urls {
		n := m.nodes[u]
		st := n.load
		st.URL = u
		st.Healthy = n.healthy
		st.Failures = n.failures
		st.LastError = n.lastErr
		out = append(out, st)
	}
	return out
}

// MarkFailure records a failed request against url (passive health from
// the client's own traffic): the node is marked down immediately, so
// subsequent requests prefer other replicas until a probe or a
// successful request brings it back.
func (m *Membership) MarkFailure(url string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.nodes[url]; ok {
		n.healthy = false
		n.failures++
		if err != nil {
			n.lastErr = err.Error()
		}
	}
}

// MarkHealthy records a successful request against url.
func (m *Membership) MarkHealthy(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.nodes[url]; ok {
		n.healthy = true
		n.failures = 0
		n.lastErr = ""
	}
}

// Probe checks one node's /v1/status synchronously and updates its
// health and load signals.
func (m *Membership) Probe(url string) error {
	resp, err := m.http.Get(url + "/v1/status")
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("probe %s: HTTP %s", url, resp.Status)
		}
	}
	if err != nil {
		m.MarkFailure(url, err)
		return err
	}
	var st service.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		err = fmt.Errorf("probe %s: bad status body: %w", url, err)
		m.MarkFailure(url, err)
		return err
	}
	m.mu.Lock()
	if n, ok := m.nodes[url]; ok {
		n.healthy = true
		n.failures = 0
		n.lastErr = ""
		n.load.QueueDepth = st.Throughput.QueueDepth
		n.load.QueueCap = st.QueueCap
		n.load.CacheHitRatio = st.Throughput.CacheHitRatio
	}
	m.mu.Unlock()
	return nil
}

// ProbeAll probes every node once, synchronously, in sorted order.
// Returns the number of healthy nodes after the round.
func (m *Membership) ProbeAll() int {
	for _, u := range m.urls {
		m.Probe(u)
	}
	return len(m.Healthy())
}

// Start launches one background prober per node when ProbeInterval is
// positive. Healthy nodes are probed every ProbeInterval; after each
// consecutive failure the node's next probe backs off exponentially
// (interval x 2^failures) up to maxProbeBackoff. Idempotent.
func (m *Membership) Start() {
	if m.opts.ProbeInterval <= 0 {
		return
	}
	m.once.Do(func() {
		for _, u := range m.urls {
			m.wg.Add(1)
			go m.probeLoop(u)
		}
	})
}

func (m *Membership) probeLoop(url string) {
	defer m.wg.Done()
	for {
		delay := m.opts.ProbeInterval
		m.mu.Lock()
		if n, ok := m.nodes[url]; ok {
			for i := 0; i < n.failures && delay < maxProbeBackoff; i++ {
				delay *= 2
			}
		}
		m.mu.Unlock()
		if delay > maxProbeBackoff {
			delay = maxProbeBackoff
		}
		t := time.NewTimer(delay) //emx:hostclock health probing is host-side by nature
		select {
		case <-m.stop:
			t.Stop()
			return
		case <-t.C:
		}
		m.Probe(url)
	}
}

// Close stops the background probers.
func (m *Membership) Close() {
	close(m.stop)
	m.wg.Wait()
}
