package main

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
)

// TestRunSeedDeterminism is the CLI-level acceptance check: two
// invocations with the same seed produce byte-identical JSON reports
// once the single timing-dependent "host" block is dropped.
func TestRunSeedDeterminism(t *testing.T) {
	invoke := func() []byte {
		var out, errb bytes.Buffer
		code := run([]string{
			"-seed", "42", "-requests", "20", "-clients", "4",
			"-local", "3", "-quiet", "-format", "json",
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("emxload exited %d: %s", code, errb.String())
		}
		return out.Bytes()
	}
	canon := func(raw []byte) string {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("report is not JSON: %v", err)
		}
		if m["schema"] != "emxload/v1" {
			t.Fatalf("schema = %v", m["schema"])
		}
		if _, ok := m["host"].(map[string]any); !ok {
			t.Fatal("report missing host block")
		}
		delete(m, "host")
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := canon(invoke()), canon(invoke())
	if a != b {
		t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
	}
}

// TestRunChaosSmoke mirrors the CI smoke step: a short closed-loop run
// with a scripted node kill and restart must finish with zero
// client-visible errors and a parseable report.
func TestRunChaosSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-seed", "42", "-requests", "24", "-clients", "2", "-local", "3",
		"-chaos", "kill:1@6,restart:1@18", "-quiet", "-format", "json",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("chaos smoke exited %d: %s", code, errb.String())
	}
	var rep struct {
		Traffic struct {
			Issued uint64 `json:"issued"`
			Errors uint64 `json:"errors"`
		} `json:"traffic"`
		Chaos struct {
			Fired int `json:"fired"`
		} `json:"chaos"`
		Host struct {
			SLO map[string]any `json:"slo"`
		} `json:"host"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Traffic.Issued != 24 || rep.Traffic.Errors != 0 {
		t.Fatalf("traffic: %+v", rep.Traffic)
	}
	if rep.Chaos.Fired != 2 {
		t.Fatalf("chaos fired %d steps, want 2", rep.Chaos.Fired)
	}
	if len(rep.Host.SLO) == 0 {
		t.Fatal("SLO block missing")
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-format", "xml"},
		{"-mix", "jog=1"},
		{"-chaos", "explode:0@1"},
		{"-nodes", "http://localhost:1", "-chaos", "kill:0@1"},
		{"-mode", "sideways"},
		{"-retries", "-1"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("run(%v) succeeded, want failure", args)
		}
	}
}

func TestRunTextReport(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-seed", "7", "-requests", "8", "-local", "2", "-quiet"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"emxload closed seed=7", "traffic:", "host:", "client:"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

// TestRunRetriesZeroMeansNone: -retries 0 is no retry at all, as in
// emxcluster, not the client's default of two.
func TestRunRetriesZeroMeansNone(t *testing.T) {
	// A port that was just released: nothing listens there.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var out, errb bytes.Buffer
	code := run([]string{
		"-nodes", "http://" + addr, "-retries", "0",
		"-requests", "1", "-clients", "1", "-quiet", "-format", "json",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exited %d, want 1 (the request must fail): %s", code, errb.String())
	}
	var rep struct {
		Traffic struct {
			Errors uint64 `json:"errors"`
		} `json:"traffic"`
		Host struct {
			Client struct {
				Attempts uint64 `json:"attempts"`
				Retries  uint64 `json:"retries"`
			} `json:"client"`
		} `json:"host"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Traffic.Errors != 1 || rep.Host.Client.Attempts != 1 || rep.Host.Client.Retries != 0 {
		t.Fatalf("errors=%d attempts=%d retries=%d, want 1, 1, 0",
			rep.Traffic.Errors, rep.Host.Client.Attempts, rep.Host.Client.Retries)
	}
}
