package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"emx/internal/proc"
	"emx/internal/sim"
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

// fmtCanonical is the fmt-based layout of the emx-run/v2 encoding: the
// oracle Canonical's bytes are checked against.
func fmtCanonical(id RunIdentity) string {
	var b strings.Builder
	b.WriteString("emx-run/v2")
	fmt.Fprintf(&b, "\nworkload=%s", id.Workload)
	fmt.Fprintf(&b, "\np=%d", id.P)
	fmt.Fprintf(&b, "\nh=%d", id.H)
	fmt.Fprintf(&b, "\nsimn=%d", id.SimN)
	fmt.Fprintf(&b, "\nseed=%d", id.Seed)
	fmt.Fprintf(&b, "\nservice=%s", id.Service)
	fmt.Fprintf(&b, "\nsched=%s", id.Sched)
	fmt.Fprintf(&b, "\nblockread=%t", id.BlockRead)
	fmt.Fprintf(&b, "\nverify=%t", id.Verify)
	fmt.Fprintf(&b, "\nconfig=%s", id.Config)
	return b.String()
}

// fmtFingerprint is Fingerprint as fmt computes it: the first 8 bytes
// of the SHA-256 of the Config's %+v text. A Config field the encoder
// does not write shows in that text, so it fails the check below.
func fmtFingerprint(c Config) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(sum[:8])
}

// extremeConfig sets every field to an extreme value, so the integer
// encoder meets the widest and the negative numbers.
func extremeConfig() Config {
	return Config{
		P: math.MinInt, MemWords: math.MaxInt,
		DispatchCycles: math.MinInt64, SaveCycles: math.MaxInt64, RestoreCycles: -1,
		PacketGenCycles: 0, SpawnCycles: 1, EXUServiceCycles: -10,
		SpinCheckCycles: 1e18, MaxCycles: sim.Time(1) << 40,
		Proc: proc.Config{
			IBUServiceCycles: math.MinInt64, OBUCycles: -2, SpillCycles: math.MaxInt64,
			Mode: 255, ReplyPrio: 255,
		},
	}
}

func TestFingerprintMatchesFmt(t *testing.T) {
	for _, c := range []Config{{}, DefaultConfig(16), DefaultConfig(64), extremeConfig()} {
		if got, want := c.Fingerprint(), fmtFingerprint(c); got != want {
			t.Errorf("Fingerprint(%+v) = %s, fmt gives %s", c, got, want)
		}
	}
	f := func(c Config) bool { return c.Fingerprint() == fmtFingerprint(c) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalMatchesFmt(t *testing.T) {
	check := func(id RunIdentity) bool {
		sum := sha256.Sum256([]byte(fmtCanonical(id)))
		return id.Canonical() == fmtCanonical(id) && id.Hash() == hex.EncodeToString(sum[:])
	}
	for _, id := range []RunIdentity{{}, baseIdentity(), {
		Workload: "fft", P: math.MinInt, H: math.MaxInt, SimN: -1, Seed: math.MinInt64,
		Service: "EM-4 EXU", Sched: "resume-first", BlockRead: true, Verify: true,
		Config: extremeConfig().Fingerprint(),
	}} {
		if !check(id) {
			t.Errorf("Canonical(%+v) = %q, fmt gives %q", id, id.Canonical(), fmtCanonical(id))
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
