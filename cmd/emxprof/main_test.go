package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fig4Args is the paper's Figure 4 scenario: bitonic sorting on two
// processors, two threads each, eight elements.
var fig4Args = []string{"-workload", "bitonic", "-p", "2", "-n", "8", "-h", "2", "-seed", "7"}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFigure4ReportGolden pins the text report for the Figure-4 scenario
// byte-for-byte. A diff here means the cost model or the report format
// changed — both are intentional, reviewable events.
func TestFigure4ReportGolden(t *testing.T) {
	code, out, errOut := runCLI(t, fig4Args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if want := golden(t, "fig4.report.txt"); out != want {
		t.Errorf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestFigure4PerfettoGolden pins the trace-event JSON byte-for-byte and
// checks it is well-formed for ui.perfetto.dev.
func TestFigure4PerfettoGolden(t *testing.T) {
	code, out, errOut := runCLI(t, append(fig4Args, "-format", "perfetto")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if want := golden(t, "fig4.trace.json"); out != want {
		t.Error("perfetto trace drifted from golden")
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Fatalf("bad trace document: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
}

func TestProfileJSONRoundTripsThroughDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.prof")
	b := filepath.Join(dir, "b.prof")
	if code, _, errOut := runCLI(t, append(fig4Args, "-format", "json", "-o", a)...); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	args := append([]string{"-workload", "bitonic", "-p", "2", "-n", "16", "-h", "2", "-seed", "7"}, "-format", "json", "-o", b)
	if code, _, errOut := runCLI(t, args...); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	code, out, errOut := runCLI(t, "-diff", a, b)
	if code != 0 {
		t.Fatalf("diff exit %d: %s", code, errOut)
	}
	for _, want := range []string{"emxprof profile diff (A -> B", "makespan", "run"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown workload", []string{"-workload", "quicksort"}},
		{"unknown format", []string{"-format", "flamegraph"}},
		{"unknown figure", []string{"-fig", "99z"}},
		{"unknown mode", []string{"-mode", "warp"}},
		{"bad p", []string{"-p", "0"}},
		{"negative slice", []string{"-slice", "-5"}},
		{"negative workers", []string{"-fig", "6a", "-workers", "-1"}},
		{"bad scale", []string{"-fig", "6a", "-scale", "0"}},
		{"diff arity", []string{"-diff", "only-one.prof"}},
		{"stray args", []string{"a.prof", "b.prof"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errOut)
			}
			if errOut == "" {
				t.Fatal("no diagnostic on stderr")
			}
		})
	}
}

// TestReportWorkerInvariantPanel: the merged panel profile is identical
// on 1 and 4 workers — the profiler's headline determinism claim, here
// end to end through the CLI.
func TestReportWorkerInvariantPanel(t *testing.T) {
	args := func(workers string) []string {
		return []string{"-fig", "6a", "-scale", "1048576", "-workers", workers}
	}
	code, one, errOut := runCLI(t, args("1")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	code, four, errOut := runCLI(t, args("4")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if one != four {
		t.Error("panel report differs between -workers 1 and -workers 4")
	}
	if !strings.Contains(one, "dropped=0") {
		t.Errorf("panel report should record zero drops:\n%s", one)
	}
}
