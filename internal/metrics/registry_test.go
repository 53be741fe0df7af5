package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("emxd_runs_total", "runs")
	a.Add(3)
	b := r.Counter("emxd_runs_total", "runs")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	if b.Value() != 3 {
		t.Fatalf("counter lost its value: %d", b.Value())
	}
	l1 := r.Labeled("emxd_cycles_total", "cycles", "workload", "fft")
	l2 := r.Labeled("emxd_cycles_total", "cycles", "workload", "fft")
	if l1 != l2 {
		t.Fatal("labeled re-registration returned a different counter")
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("emxd_runs_started_total", "simulator executions started").Add(7)
	r.Labeled("emxd_workload_cycles_total", "simulated cycles by workload", "workload", "bitonic").Add(100)
	r.Labeled("emxd_workload_cycles_total", "simulated cycles by workload", "workload", "fft").Add(50)
	r.Gauge("emxd_queue_depth", "jobs waiting", func() float64 { return 2 })

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE emxd_runs_started_total counter",
		"emxd_runs_started_total 7",
		`emxd_workload_cycles_total{workload="bitonic"} 100`,
		`emxd_workload_cycles_total{workload="fft"} 50`,
		"# TYPE emxd_queue_depth gauge",
		"emxd_queue_depth 2",
		"# HELP emxd_runs_started_total simulator executions started",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Stable ordering: two renders are identical.
	var b2 strings.Builder
	if err := r.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Fatal("exposition order not stable")
	}
}

// TestWritePromDeterministic pins the exact exposition text: output is
// a pure function of the registry contents, independent of the order
// metrics were registered in (and therefore of Go's map iteration
// order).
func TestWritePromDeterministic(t *testing.T) {
	build := func(reverse bool) string {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("runs_total", "runs").Add(7) },
			func() { r.Labeled("cycles_total", "cycles", "workload", "fft").Add(50) },
			func() { r.Labeled("cycles_total", "cycles", "workload", "bitonic").Add(100) },
			func() { r.Gauge("depth", "jobs waiting", func() float64 { return 2 }) },
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		var b strings.Builder
		if err := r.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	want := "# HELP cycles_total cycles\n" +
		"# TYPE cycles_total counter\n" +
		"cycles_total{workload=\"bitonic\"} 100\n" +
		"cycles_total{workload=\"fft\"} 50\n" +
		"# HELP depth jobs waiting\n" +
		"# TYPE depth gauge\n" +
		"depth 2\n" +
		"# HELP runs_total runs\n" +
		"# TYPE runs_total counter\n" +
		"runs_total 7\n"
	if got := build(false); got != want {
		t.Errorf("exposition:\n%q\nwant:\n%q", got, want)
	}
	if got := build(true); got != want {
		t.Errorf("reverse registration order changed the exposition:\n%q", got)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(4)
	r.Labeled("b_total", "", "k", "v").Add(5)
	r.Gauge("g", "", func() float64 { return 1.5 })
	s := r.Snapshot()
	if s["a_total"] != 4 || s[`b_total{k="v"}`] != 5 || s["g"] != 1.5 {
		t.Fatalf("snapshot = %v", s)
	}
}
