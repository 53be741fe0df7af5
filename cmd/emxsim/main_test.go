package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunsEveryWorkload: spmv runs at a non-power-of-two P, and the
// service mode accepts the same names as emxd's /v1/run.
func TestRunsEveryWorkload(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"spmv at P=80", []string{"-workload", "spmv", "-p", "80", "-n", "5120", "-h", "2"},
			[]string{"workload        spmv (verified: true)", "P=80 EMC-Y @ 20 MHz, bypass servicing"}},
		{"em4 mode", []string{"-workload", "fft", "-p", "4", "-n", "256", "-h", "2", "-mode", "em4"},
			[]string{"workload        fft (verified: true)", "P=4 EMC-Y @ 20 MHz, exu servicing"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCLI(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestRejectsBadPoints: a point no workload can run, or an unknown
// name, is a usage error (exit 2) that says why, before any simulation.
func TestRejectsBadPoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bitonic at P=80", []string{"-workload", "bitonic", "-p", "80", "-n", "2048"}, "P must be a power of two"},
		{"unknown mode", []string{"-mode", "warp"}, `unknown service mode "warp"`},
		{"unknown workload", []string{"-workload", "lu"}, `unknown workload "lu"`},
		{"zero threads", []string{"-h", "0"}, "must be >= 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCLI(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, errOut)
			}
			if !strings.Contains(errOut, tc.want) {
				t.Errorf("stderr %q lacks %q", errOut, tc.want)
			}
			if out != "" {
				t.Errorf("rejected point wrote a report:\n%s", out)
			}
		})
	}
}
