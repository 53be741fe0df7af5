package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// RunIdentity canonicalizes one simulation request — everything that
// determines the outcome of a deterministic run: the workload, machine
// geometry, simulated problem size, thread count, seed, servicing mode,
// reply scheduling policy, and the timing calibration itself. Two
// requests with the same identity are guaranteed to produce identical
// measurements, which is what makes content-addressed result caching
// and in-flight coalescing (internal/labd) safe. Labels that never
// reach the simulator, such as the paper-equivalent size a point stands
// for or the scale-down factor that produced SimN, are deliberately not
// part of it: two such labels for one simulation share one key.
type RunIdentity struct {
	Workload  string // workload name ("bitonic", "fft", "spmv", ...)
	P         int    // processors
	H         int    // threads per processor
	SimN      int    // simulated element count
	Seed      int64  // input generator seed
	Service   string // remote-request servicing mode ("bypass", "EM-4 EXU")
	Sched     string // reply scheduling policy ("fifo", "resume-first")
	BlockRead bool   // bitonic block-read ablation
	Verify    bool   // self-check enabled (changes FFT's stage count)
	Config    string // fingerprint of the full core.Config, see Fingerprint
}

// identityVersion is bumped whenever the canonical encoding changes, so
// stale persisted hashes can never alias new ones.
const identityVersion = "emx-run/v2"

// keyBuf is the stack buffer a key's text is appended into: large
// enough for the encodings of every point a sweep builds, so building a
// key allocates only the returned string. A longer text (huge negative
// fields) spills to the heap and hashes the same.
type keyBuf [384]byte

// Canonical returns the deterministic one-line-per-field encoding that
// is hashed. Field order is fixed; the encoding is versioned.
func (id RunIdentity) Canonical() string {
	var buf keyBuf
	return string(id.appendCanonical(buf[:0]))
}

// appendCanonical appends the encoding Canonical returns, one
// "\nname=value" line per field after the version; integers in decimal
// and booleans as true/false, as fmt's %d and %t print them.
func (id RunIdentity) appendCanonical(b []byte) []byte {
	b = append(b, identityVersion...)
	b = append(append(b, "\nworkload="...), id.Workload...)
	b = appendInt(b, "\np=", int64(id.P))
	b = appendInt(b, "\nh=", int64(id.H))
	b = appendInt(b, "\nsimn=", int64(id.SimN))
	b = appendInt(b, "\nseed=", id.Seed)
	b = append(append(b, "\nservice="...), id.Service...)
	b = append(append(b, "\nsched="...), id.Sched...)
	b = strconv.AppendBool(append(b, "\nblockread="...), id.BlockRead)
	b = strconv.AppendBool(append(b, "\nverify="...), id.Verify)
	return append(append(b, "\nconfig="...), id.Config...)
}

// Hash returns the content hash of the canonical encoding: the cache
// key of this run everywhere in the labd subsystem.
func (id RunIdentity) Hash() string {
	var buf keyBuf
	return hexSum(id.appendCanonical(buf[:0]), sha256.Size)
}

// Fingerprint digests every field of the Config, so a run identity
// silently changes whenever the timing calibration does — recalibrating
// the machine can never serve stale cached results. The digested text
// is the Config as fmt's %+v prints it, written field by field:
// {P:16 MemWords:1048576 ... Proc:{... Mode:bypass ReplyPrio:1}}, with
// Mode through its String method. A field added to Config must be
// added here too; TestFingerprintMatchesFmt fails until it is.
func (c Config) Fingerprint() string {
	var buf keyBuf
	b := appendInt(buf[:0], "{P:", int64(c.P))
	b = appendInt(b, " MemWords:", int64(c.MemWords))
	b = appendInt(b, " DispatchCycles:", int64(c.DispatchCycles))
	b = appendInt(b, " SaveCycles:", int64(c.SaveCycles))
	b = appendInt(b, " RestoreCycles:", int64(c.RestoreCycles))
	b = appendInt(b, " PacketGenCycles:", int64(c.PacketGenCycles))
	b = appendInt(b, " SpawnCycles:", int64(c.SpawnCycles))
	b = appendInt(b, " EXUServiceCycles:", int64(c.EXUServiceCycles))
	b = appendInt(b, " SpinCheckCycles:", int64(c.SpinCheckCycles))
	b = appendInt(b, " MaxCycles:", int64(c.MaxCycles))
	b = appendInt(b, " Proc:{IBUServiceCycles:", int64(c.Proc.IBUServiceCycles))
	b = appendInt(b, " OBUCycles:", int64(c.Proc.OBUCycles))
	b = appendInt(b, " SpillCycles:", int64(c.Proc.SpillCycles))
	b = append(append(b, " Mode:"...), c.Proc.Mode.String()...)
	b = appendInt(b, " ReplyPrio:", int64(c.Proc.ReplyPrio))
	return hexSum(append(b, "}}"...), 8)
}

// appendInt appends name, then v in decimal.
func appendInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

// hexSum returns the first n bytes of text's SHA-256 in hex.
func hexSum(text []byte, n int) string {
	sum := sha256.Sum256(text)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:n])
	return string(h[:2*n])
}
