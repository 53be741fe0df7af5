package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root must list exactly the
// workloads and metrics this program reports, in catalogue order.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, sortedKeys(workloads); !equalStrings(got, want) {
		t.Errorf("workloads %v, program runs %v", got, want)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReportNamesMissingMetrics(t *testing.T) {
	r := newReport()
	r.set("setup_s", 1)
	if _, err := r.metrics(endToEnd); err == nil {
		t.Fatal("a run missing end-to-end metrics was accepted")
	}
	for _, d := range endToEnd {
		r.set(d.name, 1)
	}
	m, err := r.metrics(endToEnd)
	if err != nil || m["setup_s"].Unit != "s" {
		t.Fatalf("complete run: %v %v", m, err)
	}
}

func TestEqualIgnoringSource(t *testing.T) {
	executed := []byte("{\n  \"key\": \"k\",\n  \"source\": \"executed\",\n  \"p\": 4\n}\n")
	cached := []byte("{\n  \"key\": \"k\",\n  \"source\": \"cached\",\n  \"p\": 4\n}\n")
	other := []byte("{\n  \"key\": \"k\",\n  \"source\": \"cached\",\n  \"p\": 8\n}\n")
	if !equalIgnoringSource(executed, cached) {
		t.Error("bodies differing only in source compared unequal")
	}
	if equalIgnoringSource(cached, other) {
		t.Error("bodies differing in a result field compared equal")
	}
	if sourceOf(cached) != "cached" || sourceOf([]byte(`{"fig": "6a"}`)) != "" {
		t.Errorf("sourceOf: %q", sourceOf(cached))
	}
}
