package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"emx/internal/labd/service"
	"emx/internal/ring"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUnknownFigureExitsNonZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-fig", "6z")
	if code == 0 {
		t.Fatal("unknown figure accepted")
	}
	if !strings.Contains(stderr, "unknown figure") ||
		!strings.Contains(stderr, "valid panels") ||
		!strings.Contains(stderr, "6a") || !strings.Contains(stderr, "latency") {
		t.Fatalf("usage message does not list valid panels:\n%s", stderr)
	}
}

func TestInvalidFlagValuesExitNonZero(t *testing.T) {
	cases := [][]string{
		{"-scale", "0"},
		{"-scale", "-8"},
		{"-workers", "-1"},
		{"-format", "yaml"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(t, args...)
		if code == 0 {
			t.Errorf("args %v accepted; stderr:\n%s", args, stderr)
		}
		if stderr == "" {
			t.Errorf("args %v rejected silently", args)
		}
	}
}

func TestUnknownFormatMessage(t *testing.T) {
	code, _, stderr := runCLI(t, "-fig", "6a", "-format", "yaml")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown format "yaml"`) ||
		!strings.Contains(stderr, "table") || !strings.Contains(stderr, "csv") ||
		!strings.Contains(stderr, "chart") || !strings.Contains(stderr, "json") {
		t.Fatalf("error must echo the bad value and list valid formats:\n%s", stderr)
	}
}

func TestFormatIsCaseInsensitive(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-fig", "6a", "-scale", hugeScale, "-format", "JSON")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, `"figures"`) && !strings.Contains(stdout, `"paper"`) {
		t.Fatalf("-format JSON did not produce the snapshot:\n%s", stdout)
	}
}

// hugeScale clamps panel sizes to the minimum grid for fast tests.
const hugeScale = "1048576"

func TestJSONSnapshot(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-fig", "6a", "-scale", hugeScale, "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(stdout), &snap); err != nil {
		t.Fatalf("invalid json: %v\n%s", err, stdout)
	}
	if snap.Scale != 1048576 || snap.Seed != 1 || len(snap.Panels) != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	p := snap.Panels[0]
	if p.ID != "fig6-bitonic-P16" || p.SimCycles == 0 || len(p.Series) != 5 {
		t.Fatalf("panel %+v", p)
	}
	h := snap.Host
	if h == nil {
		t.Fatal("in-process snapshot missing host block")
	}
	if h.SimCycles == 0 || h.SimEvents == 0 || h.WallSeconds <= 0 ||
		h.HostRunSeconds <= 0 || h.CyclesPerSecond <= 0 || h.EventsPerSecond <= 0 {
		t.Fatalf("host block not populated: %+v", h)
	}

	// Everything except the host block is byte-identical across reruns
	// (perf trajectory files diff cleanly modulo host timing).
	_, stdout2, _ := runCLI(t, "-fig", "6a", "-scale", hugeScale, "-format", "json")
	var snap2 Snapshot
	if err := json.Unmarshal([]byte(stdout2), &snap2); err != nil {
		t.Fatalf("invalid json: %v\n%s", err, stdout2)
	}
	snap.Host, snap2.Host = nil, nil
	b1, _ := json.Marshal(snap)
	b2, _ := json.Marshal(snap2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("json snapshot panels not deterministic")
	}
}

func TestRemoteDaemonRoundTrip(t *testing.T) {
	srv := service.New(service.Options{Scale: 1 << 20, Seed: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	code, local, stderr := runCLI(t, "-fig", "6a", "-scale", hugeScale, "-format", "csv")
	if code != 0 {
		t.Fatalf("local exit %d:\n%s", code, stderr)
	}
	code, remote, stderr := runCLI(t, "-fig", "6a", "-scale", hugeScale, "-format", "csv", "-remote", ts.URL)
	if code != 0 {
		t.Fatalf("remote exit %d:\n%s", code, stderr)
	}
	if local != remote {
		t.Fatalf("remote output differs from local:\n%s\nvs\n%s", local, remote)
	}
	if srv.Scheduler().Stats().Started == 0 {
		t.Fatal("daemon executed nothing")
	}

	// Second remote request: all cache hits, same bytes.
	started := srv.Scheduler().Stats().Started
	code, remote2, _ := runCLI(t, "-fig", "6a", "-scale", hugeScale, "-format", "csv", "-remote", ts.URL)
	if code != 0 || remote2 != remote {
		t.Fatal("cached remote output differs")
	}
	if srv.Scheduler().Stats().Started != started {
		t.Fatal("repeated remote figure re-executed simulations")
	}
}

// TestRemoteMultiNode: a comma-separated -remote list spreads panels
// across nodes and survives one of them being dead, byte-identically.
func TestRemoteMultiNode(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	// Panels chosen among the cheap-at-minimum-grid ones. Rendezvous
	// placement depends on the listeners' random ports, so nodes are
	// re-created until each live node owns outright at least one panel
	// whose points run on its scheduler ("model" simulates directly).
	panels := []string{"6a", "6c", "7a", "7c", "model"}
	var srv1, srv2 *service.Server
	var ts1, ts2 *httptest.Server
	for try := 0; ; try++ {
		srv1 = service.New(service.Options{Scale: 1 << 20, Seed: 1})
		ts1 = httptest.NewServer(srv1.Handler())
		srv2 = service.New(service.Options{Scale: 1 << 20, Seed: 1})
		ts2 = httptest.NewServer(srv2.Handler())
		r := ring.New([]string{ts1.URL, ts2.URL, dead.URL})
		owners := map[string]bool{}
		for _, fig := range panels[:4] {
			owners[r.Owner(service.FigureKey(fig, 1<<20, 1))] = true
		}
		if owners[ts1.URL] && owners[ts2.URL] {
			break
		}
		ts1.Close()
		srv1.Close()
		ts2.Close()
		srv2.Close()
		if try == 50 {
			t.Fatal("no listener placement spread the panels over both nodes")
		}
	}
	defer func() { ts1.Close(); srv1.Close(); ts2.Close(); srv2.Close() }()

	nodes := ts1.URL + "," + ts2.URL + "," + dead.URL
	for _, fig := range panels {
		code, local, stderr := runCLI(t, "-fig", fig, "-scale", hugeScale, "-format", "csv")
		if code != 0 {
			t.Fatalf("local %s exit %d:\n%s", fig, code, stderr)
		}
		code, remote, stderr := runCLI(t, "-fig", fig, "-scale", hugeScale, "-format", "csv", "-remote", nodes)
		if code != 0 {
			t.Fatalf("multi-node %s exit %d:\n%s", fig, code, stderr)
		}
		if local != remote {
			t.Fatalf("multi-node remote output for %s differs from local", fig)
		}
	}
	s1, s2 := srv1.Scheduler().Stats().Started, srv2.Scheduler().Stats().Started
	if s1 == 0 || s2 == 0 {
		t.Fatalf("panels did not spread across nodes: started %d/%d", s1, s2)
	}
}

func TestRemoteUnreachable(t *testing.T) {
	code, _, stderr := runCLI(t, "-fig", "6a", "-remote", "http://127.0.0.1:1")
	if code == 0 {
		t.Fatal("unreachable daemon accepted")
	}
	if !strings.Contains(stderr, "remote") {
		t.Fatalf("stderr %q", stderr)
	}
}
