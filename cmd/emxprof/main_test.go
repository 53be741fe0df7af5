package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
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

// TestSpillReportGolden pins the report for a point whose queues spill
// and whose remote requests are serviced on the EXU (EM-4 mode), so the
// spill phase, the spill count and the exu-serviced count, all zero in
// the Figure-4 golden, are pinned too.
func TestSpillReportGolden(t *testing.T) {
	code, out, errOut := runCLI(t, "-workload", "bitonic", "-p", "4", "-n", "256", "-h", "16", "-mode", "exu")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if want := golden(t, "spill.report.txt"); out != want {
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
		Events          []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.Events) == 0 {
		t.Fatalf("bad trace document: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.Events))
	}
}

// TestFigure4TimelineGolden pins the default -format timeline output,
// the paper's Figure 4 picture (bitonic, P=2, h=2, 8 elements, seed 7),
// byte for byte. The simulator is deterministic, so a diff here means
// the machine timing or the renderer changed.
func TestFigure4TimelineGolden(t *testing.T) {
	code, out, errOut := runCLI(t, "-format", "timeline")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if want := golden(t, "fig4.timeline.txt"); out != want {
		t.Errorf("timeline drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestTimelineTruncationIsReported: a ring too small for the run's
// thread events says how many it dropped instead of silently drawing
// bands with their start missing.
func TestTimelineTruncationIsReported(t *testing.T) {
	code, out, errOut := runCLI(t, append(fig4Args, "-format", "timeline", "-capacity", "16")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "dropped the 28 earliest thread events") || !strings.Contains(out, "-capacity") {
		t.Errorf("truncated timeline does not report its drops:\n%s", out)
	}
	if strings.Contains(golden(t, "fig4.timeline.txt"), "dropped") {
		t.Error("the complete Figure 4 timeline must not report drops")
	}
}

// TestTimelineEveryWorkload: every workload renders bands, a legend and
// per-PE counts.
func TestTimelineEveryWorkload(t *testing.T) {
	for _, w := range []string{"bitonic", "fft", "spmv"} {
		code, out, errOut := runCLI(t, "-workload", w, "-p", "4", "-n", "16", "-format", "timeline")
		if code != 0 {
			t.Errorf("%s: exit %d: %s", w, code, errOut)
			continue
		}
		for _, want := range []string{w + ": P=4, n=16, h=2", "one column", "PE3", "legend:", "starts"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s timeline missing %q:\n%s", w, want, out)
			}
		}
	}
}

// TestTimelineIsDeterministic: the same point renders the same bytes
// twice, for every workload.
func TestTimelineIsDeterministic(t *testing.T) {
	for _, w := range []string{"bitonic", "fft", "spmv"} {
		args := []string{"-workload", w, "-p", "4", "-n", "16", "-format", "timeline"}
		_, first, _ := runCLI(t, args...)
		if _, second, _ := runCLI(t, args...); first == "" || first != second {
			t.Errorf("%s timeline not reproducible across runs", w)
		}
	}
}

// TestTimelineInvalidFlagValues: in timeline mode a bad point, a panel
// or an unknown flag exits 2 with a diagnostic and no timeline.
func TestTimelineInvalidFlagValues(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "quicksort"},
		{"-p", "0"},
		{"-n", "0"},
		{"-h", "-1"},
		{"-fig", "6a"},
		{"-not-a-flag"},
	} {
		code, out, errOut := runCLI(t, append(args, "-format", "timeline")...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out != "" {
			t.Errorf("%v wrote stdout despite failing:\n%s", args, out)
		}
		if errOut == "" {
			t.Errorf("%v rejected silently", args)
		}
	}
}

// TestPerfettoFormat: the default point's trace names the run in its
// process names and is byte-identical across invocations.
func TestPerfettoFormat(t *testing.T) {
	code, first, errOut := runCLI(t, "-format", "perfetto")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(first, "bitonic P=2 n=8 h=2") {
		t.Error("trace missing the run label in process names")
	}
	if _, second, _ := runCLI(t, "-format", "perfetto"); first != second {
		t.Fatal("perfetto trace not byte-identical across runs")
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
		{"timeline of a panel", []string{"-fig", "6a", "-format", "timeline"}},
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
			code, out, errOut := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errOut)
			}
			if errOut == "" {
				t.Fatal("no diagnostic on stderr")
			}
			if out != "" {
				t.Fatalf("wrote stdout despite failing:\n%s", out)
			}
		})
	}
}

func TestUnknownWorkloadMessage(t *testing.T) {
	_, _, errOut := runCLI(t, "-workload", "quicksort")
	if !strings.Contains(errOut, `"quicksort"`) || !strings.Contains(errOut, "bitonic") {
		t.Fatalf("error must echo the bad value and list workloads:\n%s", errOut)
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	code, out, errOut := runCLI(t, "-format", "svg")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out != "" {
		t.Fatalf("wrote stdout despite failing:\n%s", out)
	}
	if !strings.Contains(errOut, `"svg"`) || !strings.Contains(errOut, "timeline") {
		t.Fatalf("error must echo the bad format and list the formats:\n%s", errOut)
	}
}

// TestReportWorkerInvariantPanel: every panel artifact — text report,
// merged profile JSON, Perfetto trace — is identical on 1 and 4
// workers, the profiler's headline determinism claim, here end to end
// through the CLI. At this scale all five 6a sizes clamp to one
// simulated n, so the panel is 9 distinct simulations (one per thread
// count), each profiled once under a deterministically chosen label.
func TestReportWorkerInvariantPanel(t *testing.T) {
	outputs := map[string]string{}
	for _, format := range []string{"report", "json", "perfetto"} {
		args := func(workers string) []string {
			return []string{"-fig", "6a", "-scale", "1048576", "-workers", workers, "-format", format}
		}
		code, one, errOut := runCLI(t, args("1")...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", format, code, errOut)
		}
		code, four, errOut := runCLI(t, args("4")...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", format, code, errOut)
		}
		if one != four {
			t.Errorf("panel %s output differs between -workers 1 and -workers 4", format)
		}
		outputs[format] = one
	}
	if !strings.Contains(outputs["report"], "dropped=0") {
		t.Errorf("panel report should record zero drops:\n%s", outputs["report"])
	}
	var prof struct {
		Points int `json:"points"`
	}
	if err := json.Unmarshal([]byte(outputs["json"]), &prof); err != nil {
		t.Fatal(err)
	}
	if prof.Points != 9 {
		t.Errorf("merged panel profile has %d points, want 9 distinct simulations", prof.Points)
	}
}

// TestPanelProfileUsesSweepSeed: with no -seed, a panel profile covers
// the points the figure shows, swept at seed 1 like emxbench, emxd and
// perfbench. The hashes are those of the profile and trace emxbench
// wrote for this panel before emxprof became the one panel profiler;
// at point mode's seed 7 the JSON hashes to 369f7799… instead.
func TestPanelProfileUsesSweepSeed(t *testing.T) {
	for format, want := range map[string]string{
		"json":     "d4df56ee36399b81e90636e48f69c71d360f2ed0f2174265f9c2f050d26fab31",
		"perfetto": "7257345aa850f2d10f0822ece5b20c94c04d5e25eca9b69127d68ecf72a68026",
	} {
		code, out, errOut := runCLI(t, "-fig", "6a", "-scale", "1048576", "-format", format)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", format, code, errOut)
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("-fig 6a -format %s: sha256 %s, want %s", format, got, want)
		}
	}
}

// TestTraceAllPanels: a Perfetto trace of every panel needs no merged
// profile, so -fig all succeeds with -format perfetto although the
// panels differ in machine size.
func TestTraceAllPanels(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "all.trace.json")
	code, _, stderr := runCLI(t, "-fig", "all", "-scale", "1048576", "-capacity", "1024", "-format", "perfetto", "-o", trace)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const prefix = `{"displayTimeUnit"`
	head := make([]byte, len(prefix))
	if _, err := io.ReadFull(f, head); err != nil || string(head) != prefix {
		t.Fatalf("trace does not start as a Perfetto document: %q (%v)", head, err)
	}
}

// TestProfileAllPanelsRejected: a merged profile sums PEs of one
// machine size, so a report or JSON profile of -fig all exits 2 before
// simulating anything, rather than failing after the whole sweep.
func TestProfileAllPanelsRejected(t *testing.T) {
	for _, format := range []string{"report", "json"} {
		path := filepath.Join(t.TempDir(), "profile.json")
		code, stdout, stderr := runCLI(t, "-fig", "all", "-scale", "1048576", "-format", format, "-o", path)
		if code != 2 {
			t.Fatalf("%s: exit %d, want 2:\n%s", format, code, stderr)
		}
		if stdout != "" || strings.Contains(stderr, "sweeping") {
			t.Fatalf("%s: simulated before rejecting:\nstdout: %s\nstderr: %s", format, stdout, stderr)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: profile file exists after a rejected run (%v)", format, err)
		}
	}
}

// TestRejectedRunKeepsOutput: -o is created only once the flags and the
// -diff inputs check out, so a rejected run leaves an existing file
// byte-identical instead of truncating it.
func TestRejectedRunKeepsOutput(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "keep.json")
	const content = "{\"kept\": true}\n"
	for _, args := range [][]string{
		{"-fig", "bogus"},
		{"-fig", "all", "-format", "json"},
		{"-fig", "6a", "-scale", "0"},
		{"-format", "svg"},
		{"-p", "0"},
		{"-workload", "quicksort"},
		{"-diff", filepath.Join(dir, "one.json")},
		{"-diff", filepath.Join(dir, "missing-a.json"), filepath.Join(dir, "missing-b.json")},
	} {
		if err := os.WriteFile(keep, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, errOut := runCLI(t, append([]string{"-o", keep}, args...)...)
		if code == 0 {
			t.Errorf("%v: accepted", args)
		}
		if errOut == "" {
			t.Errorf("%v: rejected silently", args)
		}
		if b, err := os.ReadFile(keep); err != nil || string(b) != content {
			t.Errorf("%v: -o file is %q after a rejected run (%v), want it untouched", args, b, err)
		}
	}
}
