package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// RunIdentity canonicalizes one simulation request — everything that
// determines the outcome of a deterministic run: the workload, machine
// geometry, problem size, thread count, seed, servicing mode, reply
// scheduling policy, and the timing calibration itself. Two requests
// with the same identity are guaranteed to produce identical
// measurements, which is what makes content-addressed result caching
// and in-flight coalescing (internal/labd) safe.
type RunIdentity struct {
	Workload  string // workload name ("bitonic", "fft", "spmv", ...)
	P         int    // processors
	H         int    // threads per processor
	SimN      int    // simulated element count
	PaperN    int    // paper-equivalent size the point stands for
	Scale     int    // scale-down factor the request used (0 if direct)
	Seed      int64  // input generator seed
	Service   string // remote-request servicing mode ("bypass", "EM-4 EXU")
	Sched     string // reply scheduling policy ("fifo", "resume-first")
	BlockRead bool   // bitonic block-read ablation
	Verify    bool   // self-check enabled (changes FFT's stage count)
	Config    string // fingerprint of the full core.Config, see Fingerprint
}

// identityVersion is bumped whenever the canonical encoding changes, so
// stale persisted hashes can never alias new ones.
const identityVersion = "emx-run/v1"

// Canonical returns the deterministic one-line-per-field encoding that
// is hashed. Field order is fixed; the encoding is versioned.
func (id RunIdentity) Canonical() string {
	var b strings.Builder
	b.WriteString(identityVersion)
	fmt.Fprintf(&b, "\nworkload=%s", id.Workload)
	fmt.Fprintf(&b, "\np=%d", id.P)
	fmt.Fprintf(&b, "\nh=%d", id.H)
	fmt.Fprintf(&b, "\nsimn=%d", id.SimN)
	fmt.Fprintf(&b, "\npapern=%d", id.PaperN)
	fmt.Fprintf(&b, "\nscale=%d", id.Scale)
	fmt.Fprintf(&b, "\nseed=%d", id.Seed)
	fmt.Fprintf(&b, "\nservice=%s", id.Service)
	fmt.Fprintf(&b, "\nsched=%s", id.Sched)
	fmt.Fprintf(&b, "\nblockread=%t", id.BlockRead)
	fmt.Fprintf(&b, "\nverify=%t", id.Verify)
	fmt.Fprintf(&b, "\nconfig=%s", id.Config)
	return b.String()
}

// Hash returns the content hash of the canonical encoding: the cache
// key of this run everywhere in the labd subsystem.
func (id RunIdentity) Hash() string {
	sum := sha256.Sum256([]byte(id.Canonical()))
	return hex.EncodeToString(sum[:])
}

// Fingerprint digests every field of the Config, so a run identity
// silently changes whenever the timing calibration does — recalibrating
// the machine can never serve stale cached results.
func (c Config) Fingerprint() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(sum[:8])
}
