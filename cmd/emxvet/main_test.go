package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emx/internal/lint"
)

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{"emx/internal/sim"}, 0},
		{"fixture has findings", []string{"-only", "detsource", "emx/internal/lint/testdata/src/detsource_crit"}, 1},
		{"findings as json", []string{"-json", "-only", "detsource", "emx/internal/lint/testdata/src/detsource_crit"}, 1},
		{"hotalloc fixture has findings", []string{"-only", "hotalloc", "emx/internal/lint/testdata/src/hotalloc"}, 1},
		{"unknown analyzer", []string{"-only", "nosuch", "emx/internal/sim"}, 2},
		{"unloadable pattern", []string{"emx/no/such/package"}, 2},
		{"missing baseline file", []string{"-baseline", "no/such/baseline.json", "emx/internal/sim"}, 2},
		{"list analyzers", []string{"-list"}, 0},
		{"removed graph flag", []string{"-graph", "emx/internal/sim"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(c.args); got != c.want {
				t.Errorf("run(%v) = %d, want %d", c.args, got, c.want)
			}
		})
	}
}

// capture runs fn with os.Stdout redirected and returns what it wrote.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	w.Close()
	return <-done
}

// TestExplainPrintsChains checks that -explain prints a finding's
// related positions, indented under it: a duplicated directive points
// back at its first copy.
func TestExplainPrintsChains(t *testing.T) {
	out := capture(t, func() {
		if got := run([]string{"-explain", "-only", "emxdirective", "emx/internal/lint/testdata/src/directive"}); got != 1 {
			t.Errorf("-explain exit = %d, want 1", got)
		}
	})
	if !strings.Contains(out, "\t") || !strings.Contains(out, ": first //emx:hotpath here") {
		t.Errorf("-explain should print the indented note \"first //emx:hotpath here\":\n%s", out)
	}
}

// TestBaselineRoundTrip saves a -json run as the baseline and checks it
// suppresses exactly those findings: same run exits 0, an empty
// baseline leaves them fatal.
func TestBaselineRoundTrip(t *testing.T) {
	target := "emx/internal/lint/testdata/src/hotalloc"
	saved := capture(t, func() {
		if got := run([]string{"-json", "-only", "hotalloc", target}); got != 1 {
			t.Fatalf("seed run exit = %d, want 1", got)
		}
	})

	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(saved), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-only", "hotalloc", "-baseline", baseline, target}); got != 0 {
		t.Errorf("baselined run exit = %d, want 0", got)
	}

	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-only", "hotalloc", "-baseline", empty, target}); got != 1 {
		t.Errorf("empty-baseline run exit = %d, want 1", got)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-only", "hotalloc", "-baseline", bad, target}); got != 2 {
		t.Errorf("malformed-baseline run exit = %d, want 2", got)
	}
}

// TestBaselinePackageKey pins the package component of the baseline
// key: two fixture packages produce findings with identical analyzer,
// file basename, and message, so only the import path tells them
// apart. A baseline saved from one package must suppress that package
// alone — and a legacy baseline whose rows predate the package field
// must keep matching findings from any package.
func TestBaselinePackageKey(t *testing.T) {
	alpha := "emx/internal/lint/testdata/src/baselinetwin/alpha"
	beta := "emx/internal/lint/testdata/src/baselinetwin/beta"
	saved := capture(t, func() {
		if got := run([]string{"-json", "-only", "hotalloc", alpha}); got != 1 {
			t.Fatalf("seed run on alpha exit = %d, want 1", got)
		}
	})
	if !strings.Contains(saved, `"package": "`+alpha+`"`) {
		t.Fatalf("saved run carries no package field:\n%s", saved)
	}

	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(saved), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-only", "hotalloc", "-baseline", baseline, alpha}); got != 0 {
		t.Errorf("alpha's baseline should suppress alpha, exit = %d", got)
	}
	if got := run([]string{"-only", "hotalloc", "-baseline", baseline, beta}); got != 1 {
		t.Errorf("alpha's baseline must NOT suppress beta's identical-looking finding, exit = %d", got)
	}

	// Strip the package field to simulate a baseline saved before
	// diagnostics carried one: legacy rows match any package.
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(saved), &diags); err != nil {
		t.Fatal(err)
	}
	for i := range diags {
		diags[i].Package = ""
	}
	stripped, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-only", "hotalloc", "-baseline", legacy, alpha}); got != 0 {
		t.Errorf("legacy baseline should still suppress alpha, exit = %d", got)
	}
	if got := run([]string{"-only", "hotalloc", "-baseline", legacy, beta}); got != 0 {
		t.Errorf("legacy baseline should suppress beta too (no package to pin), exit = %d", got)
	}
}

// TestBaselineIsLineIndependent shifts every position in the saved
// baseline: matching must still work, because baselines key on
// (analyzer, file basename, message), not position — a baselined
// finding survives unrelated edits above it.
func TestBaselineIsLineIndependent(t *testing.T) {
	target := "emx/internal/lint/testdata/src/hotalloc"
	saved := capture(t, func() {
		run([]string{"-json", "-only", "hotalloc", target})
	})
	if !strings.Contains(saved, `"Line": `) {
		t.Fatalf("saved run carries no Line fields:\n%s", saved)
	}
	shifted := strings.ReplaceAll(saved, `"Line": `, `"Line": 9`)
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(shifted), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-only", "hotalloc", "-baseline", baseline, target}); got != 0 {
		t.Errorf("line-shifted baseline should still suppress, exit = %d", got)
	}
}
