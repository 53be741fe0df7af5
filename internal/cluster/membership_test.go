package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"emx/internal/labd/service"
)

// hugeScale clamps panel sizes to the minimum grid for fast tests.
const hugeScale = 1 << 20

func newNode(t *testing.T) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.New(service.Options{Scale: hugeScale, Seed: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func TestMembershipProbe(t *testing.T) {
	_, ts := newNode(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on

	m := NewMembership([]string{ts.URL, dead.URL}, MembershipOptions{})
	if got := len(m.Healthy()); got != 2 {
		t.Fatalf("nodes must start optimistically healthy, got %d", got)
	}
	if n := m.ProbeAll(); n != 1 {
		t.Fatalf("ProbeAll healthy count = %d, want 1", n)
	}
	if m.IsHealthy(dead.URL) {
		t.Error("dead node still marked healthy after probe")
	}
	if !m.IsHealthy(ts.URL) {
		t.Error("live node marked down")
	}

	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d nodes", len(snap))
	}
	// Sorted by URL, carrying load signals for the live node.
	for _, n := range snap {
		if n.URL == ts.URL {
			if !n.Healthy || n.QueueCap == 0 {
				t.Errorf("live node status not populated: %+v", n)
			}
		} else {
			if n.Healthy || n.Failures == 0 || n.LastError == "" {
				t.Errorf("dead node status not populated: %+v", n)
			}
		}
	}

	full, ok := m.Load(ts.URL)
	if !ok || full < 0 || full > 1 {
		t.Errorf("Load(%s) = %v, %v", ts.URL, full, ok)
	}
	if _, ok := m.Load(dead.URL); ok {
		t.Error("Load must report !ok for a never-probed node")
	}
}

func TestMembershipPassiveMarking(t *testing.T) {
	m := NewMembership([]string{"http://a:1", "http://b:1"}, MembershipOptions{})
	m.MarkFailure("http://a:1", nil)
	if m.IsHealthy("http://a:1") || len(m.Healthy()) != 1 {
		t.Fatal("MarkFailure did not take a node down")
	}
	m.MarkHealthy("http://a:1")
	if !m.IsHealthy("http://a:1") {
		t.Fatal("MarkHealthy did not recover the node")
	}
	// Unknown nodes are ignored, not invented.
	m.MarkFailure("http://zzz:1", nil)
	if len(m.Members()) != 2 {
		t.Fatal("marking an unknown node grew the member set")
	}
}

// TestMembershipBackgroundProber exercises the probe loop end to end:
// a dead node is detected and a revived one recovers, without any
// explicit ProbeAll.
func TestMembershipBackgroundProber(t *testing.T) {
	_, ts := newNode(t)
	m := NewMembership([]string{ts.URL}, MembershipOptions{
		ProbeInterval: 2 * time.Millisecond,
	})
	m.MarkFailure(ts.URL, nil) // start down; the prober must bring it up
	m.Start()
	defer m.Close()

	deadline := time.After(5 * time.Second)
	for !m.IsHealthy(ts.URL) {
		select {
		case <-deadline:
			t.Fatal("background prober never recovered the node")
		case <-time.After(time.Millisecond):
		}
	}
}
