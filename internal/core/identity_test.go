package core

import (
	"strings"
	"testing"
)

func baseIdentity() RunIdentity {
	return RunIdentity{
		Workload: "bitonic", P: 16, H: 4, SimN: 256,
		Seed: 1, Service: "bypass", Sched: "fifo",
		Config: DefaultConfig(16).Fingerprint(),
	}
}

func TestIdentityHashDeterministic(t *testing.T) {
	a, b := baseIdentity(), baseIdentity()
	if a.Hash() != b.Hash() {
		t.Fatalf("identical identities hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(a.Hash()))
	}
}

func TestIdentityHashSensitivity(t *testing.T) {
	base := baseIdentity()
	mutations := map[string]func(*RunIdentity){
		"workload": func(id *RunIdentity) { id.Workload = "fft" },
		"p":        func(id *RunIdentity) { id.P = 64 },
		"h":        func(id *RunIdentity) { id.H = 8 },
		"simn":     func(id *RunIdentity) { id.SimN = 512 },
		"seed":     func(id *RunIdentity) { id.Seed = 2 },
		"service":  func(id *RunIdentity) { id.Service = "EM-4 EXU" },
		"sched":    func(id *RunIdentity) { id.Sched = "resume-first" },
		"block":    func(id *RunIdentity) { id.BlockRead = true },
		"verify":   func(id *RunIdentity) { id.Verify = true },
		"config":   func(id *RunIdentity) { id.Config = "deadbeef" },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mutate := range mutations {
		id := baseIdentity()
		mutate(&id)
		h := id.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

func TestIdentityCanonicalVersioned(t *testing.T) {
	c := baseIdentity().Canonical()
	if !strings.HasPrefix(c, "emx-run/v2\n") {
		t.Fatalf("canonical encoding not versioned:\n%s", c)
	}
	for _, field := range []string{"workload=bitonic", "p=16", "simn=256", "seed=1", "config="} {
		if !strings.Contains(c, field) {
			t.Errorf("canonical encoding missing %q", field)
		}
	}
	// Labels that never reach the simulator stay out of the key.
	for _, label := range []string{"papern=", "scale="} {
		if strings.Contains(c, label) {
			t.Errorf("canonical encoding carries the non-simulation label %q:\n%s", label, c)
		}
	}
}

func TestConfigFingerprintTracksCalibration(t *testing.T) {
	a := DefaultConfig(16)
	b := DefaultConfig(16)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configs fingerprint differently")
	}
	b.SaveCycles++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("recalibrated config keeps the old fingerprint")
	}
}
