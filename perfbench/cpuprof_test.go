package main

import (
	"math"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack   []string
		layer   string
		handoff bool
	}{
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "emx/internal/core.(*Machine).yield", "emx/internal/sim.(*Engine).Run"}, "core", true},
		{[]string{"runtime.mallocgc", "emx/internal/network.(*Network).send", "emx/internal/core.(*EXU).step"}, "network", false},
		{[]string{"encoding/json.(*encodeState).marshal", "encoding/json.(*Encoder).Encode", "emx/internal/labd/service.writeJSON"}, "json", false},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "emx/internal/core.newThread"}, "gc", false},
		{[]string{"sync/atomic.(*Uint64).Add", "emx/internal/metrics.(*Counter).Inc", "emx/internal/labd.(*Scheduler).DoContext"}, "labd", false},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"}, "http", false},
		{[]string{"emx/internal/apps/fft.butterfly", "emx/internal/core.(*Thread).run"}, "apps", false},
		{[]string{"emx/internal/ring.score", "emx/internal/cluster.(*Client).candidates"}, "cluster", false},
		{[]string{"main.openLoop.func1"}, "gen", false},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "other", false},
		{nil, "other", false},
	} {
		layer, handoff := classify(tc.stack)
		if layer != tc.layer || handoff != tc.handoff {
			t.Errorf("classify(%v) = %s,%v; want %s,%v", tc.stack, layer, handoff, tc.layer, tc.handoff)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"emx/internal/labd/service.(*Server).serve": "emx/internal/labd/service",
		"emx/internal/core.(*Machine).step.func1":   "emx/internal/core",
		"main.run":        "main",
		"runtime.gcDrain": "runtime",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeSumsToHundred(t *testing.T) {
	s := attribute([][]string{
		{"emx/internal/sim.(*Engine).Run"},
		{"runtime.chansend", "emx/internal/core.(*Machine).yield"},
		{"runtime.futex"},
		{"main.run"},
	}, []int64{5, 3, 1, 1})
	sum := 0.0
	for _, l := range cpuLayers {
		sum += s.pct[l]
	}
	if math.Abs(sum-100) > 1e-9 || s.samples != 10 || s.pct["sim"] != 50 || s.handoff != 30 {
		t.Fatalf("attribute: %+v (sum %g)", s, sum)
	}
}

//go:noinline
func spinFor(d time.Duration) int {
	n := 0
	for stop := time.Now().Add(d); time.Now().Before(stop); n++ {
	}
	return n
}

// A real CPU profile decodes, and time spent in this package is
// charged to the load generator's layer.
func TestProfileCPUDecodesRealProfile(t *testing.T) {
	s, err := profileCPU(func() error { spinFor(300 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if s.samples < 5 {
		t.Skipf("only %d CPU samples; profiler starved", s.samples)
	}
	if s.pct["gen"] < 50 {
		t.Fatalf("spinning in package main charged %.1f%% to gen; shares %v", s.pct["gen"], s.pct)
	}
}
