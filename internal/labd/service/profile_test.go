package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"emx/internal/obs"
)

func TestProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := ProfileRequest{
		RunRequest:  RunRequest{Workload: "bitonic", P: 4, H: 2, N: 64 << 10},
		SliceCycles: 512,
	}

	resp := postJSON(t, ts.URL+"/v1/profile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(SourceHeader); got != "executed" {
		t.Fatalf("first profile source %q, want executed", got)
	}
	key := resp.Header.Get(RunKeyHeader)
	if len(key) != 64 {
		t.Fatalf("run key %q is not a content hash", key)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := obs.LoadProfile(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response is not an emxprof profile: %v", err)
	}
	if prof.P != 4 || prof.Makespan == 0 || len(prof.Slices) == 0 {
		t.Fatalf("bad profile: P=%d makespan=%d slices=%d", prof.P, prof.Makespan, len(prof.Slices))
	}

	// The identical request is served from the profile cache,
	// byte-identically.
	resp2 := postJSON(t, ts.URL+"/v1/profile", req)
	if got := resp2.Header.Get(SourceHeader); got != "cache" {
		t.Fatalf("second profile source %q, want cache", got)
	}
	body2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(body2) {
		t.Fatal("cached profile differs from executed profile")
	}
}

func TestProfileFormats(t *testing.T) {
	_, ts := newTestServer(t)
	base := RunRequest{Workload: "fft", P: 4, H: 2, N: 64 << 10}

	rep := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{RunRequest: base, Format: "report"})
	body, _ := io.ReadAll(rep.Body)
	rep.Body.Close()
	if !strings.Contains(rep.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("report content type %q", rep.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "dropped=0") || !strings.Contains(string(body), "phase") {
		t.Errorf("report missing expected lines:\n%s", body)
	}

	tr := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{RunRequest: base, Format: "perfetto"})
	tbody, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	var doc struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbody, &doc); err != nil {
		t.Fatalf("perfetto body is not valid JSON: %v", err)
	}
	if len(doc.Events) == 0 {
		t.Fatal("perfetto trace has no events")
	}

	// Another paper size that clamps to the same simulated n shares the
	// cached profile, but the trace is named after the request's own n.
	relabelled := base
	relabelled.N = 32 << 10
	tr2 := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{RunRequest: relabelled, Format: "perfetto"})
	tbody2, _ := io.ReadAll(tr2.Body)
	tr2.Body.Close()
	if src := tr2.Header.Get(SourceHeader); src != "cache" {
		t.Errorf("clamped profile request source %q, want cache", src)
	}
	if !strings.Contains(string(tbody), "n=64K") || !strings.Contains(string(tbody2), "n=32K") ||
		strings.Contains(string(tbody2), "n=64K") {
		t.Error("perfetto traces not named after each request's own paper size")
	}

	bad := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{RunRequest: base, Format: "flamegraph"})
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status %d, want 400", bad.StatusCode)
	}
}

func TestProfileValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{
		RunRequest: RunRequest{Workload: "nosuch", P: 4, H: 1, N: 1024},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad workload status %d, want 400", resp.StatusCode)
	}
	neg := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{
		RunRequest:  RunRequest{Workload: "fft", P: 4, H: 1, N: 1024},
		SliceCycles: -1,
	})
	neg.Body.Close()
	if neg.StatusCode != http.StatusBadRequest {
		t.Errorf("negative slice status %d, want 400", neg.StatusCode)
	}
}

// TestProfileCacheBound: the profile cache keeps the 32 most recently
// used points; the 33rd distinct point evicts the least recently used,
// which is executed again when asked for.
func TestProfileCacheBound(t *testing.T) {
	_, ts := newTestServer(t)
	profile := func(seed int64) string {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{
			RunRequest: RunRequest{Workload: "bitonic", P: 2, H: 1, N: 1024, Seed: seed},
		})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		return resp.Header.Get(SourceHeader)
	}
	entries := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "emxd_profile_cache_entries "); ok {
				return v
			}
		}
		t.Fatal("/metrics has no emxd_profile_cache_entries")
		return ""
	}

	for seed := int64(1); seed <= 33; seed++ {
		if src := profile(seed); src != "executed" {
			t.Fatalf("seed %d: first profile source %q, want executed", seed, src)
		}
	}
	if got := entries(); got != "32" {
		t.Fatalf("emxd_profile_cache_entries = %s after 33 points, want 32", got)
	}
	if src := profile(33); src != "cache" {
		t.Fatalf("most recent point: source %q, want cache", src)
	}
	if src := profile(1); src != "executed" {
		t.Fatalf("least recently used point: source %q, want executed", src)
	}
	if got := entries(); got != "32" {
		t.Fatalf("emxd_profile_cache_entries = %s, want 32", got)
	}
}
