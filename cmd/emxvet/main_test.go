package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{"emx/internal/sim"}, 0},
		{"fixture has findings", []string{"-only", "emxdirective", "emx/internal/lint/testdata/src/directive"}, 1},
		{"findings as json", []string{"-json", "-only", "emxdirective", "emx/internal/lint/testdata/src/directive"}, 1},
		{"removed hotalloc analyzer", []string{"-only", "hotalloc", "emx/internal/sim"}, 2},
		{"unknown analyzer", []string{"-only", "nosuch", "emx/internal/sim"}, 2},
		{"unloadable pattern", []string{"emx/no/such/package"}, 2},
		{"removed baseline flag", []string{"-baseline", ".emxvet-baseline.json", "emx/internal/sim"}, 2},
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
	if !strings.Contains(out, "\t") || !strings.Contains(out, ": first //emx:hostclock here") {
		t.Errorf("-explain should print the indented note \"first //emx:hostclock here\":\n%s", out)
	}
}
