// Package fingerprint exercises the Fingerprint exclusion audit: every
// field a Fingerprint method clears before hashing must either carry
// //emx:nofingerprint or be unread on result-affecting paths, and the
// attestation itself must not go stale.
//
//emx:determinism
package fingerprint

import "fmt"

type Config struct {
	// P is hashed; the attestation on it is stale and must be flagged.
	P int //emx:nofingerprint // want "stale //emx:nofingerprint on field P"

	// Workers is excluded AND read on result paths, but the audit
	// directive attests that is safe: no finding.
	//emx:nofingerprint
	Workers int

	// Trace is excluded without attestation and read two calls below
	// the exported surface: the cache-poisoning case.
	Trace bool

	// Debug is excluded without attestation but nothing result-affecting
	// reads it: clean.
	Debug bool
}

// Fingerprint hashes the config minus the host-side knobs.
func (c Config) Fingerprint() string {
	c.Workers = 0
	c.Trace = false // want "field Trace is excluded from Fingerprint but read"
	c.Debug = false
	return fmt.Sprintf("%+v", c)
}

// Run is the exported, result-affecting surface.
func Run(c Config) int {
	return c.P + stage(c) + workersOf(c)
}

func stage(c Config) int { return inner(c) }

// inner reads Trace two static calls below Run.
func inner(c Config) int {
	if c.Trace {
		return 1
	}
	return 0
}

// workersOf reads the attested field: covered by the directive.
func workersOf(c Config) int { return c.Workers }

// debugDump reads Debug but is unreachable from the exported surface,
// so Debug's exclusion needs no attestation.
func debugDump(c Config) bool { return c.Debug }

var _ = debugDump

//emx:nofingerprint // want "unused //emx:nofingerprint directive"
var defaultP = 4

var _ = defaultP
