// Package detsource_crit exercises the detsource analyzer inside a
// determinism-critical package (the lint tests add it to the set).
package detsource_crit

import (
	crand "crypto/rand" // want "import of crypto/rand in determinism-critical package"
	"math/rand"
	"os"
	"time"
)

// Bad reaches for every obvious nondeterministic source.
func Bad() time.Duration {
	start := time.Now()       // want "time.Now is a nondeterministic source"
	_ = os.Getenv("EMX_SEED") // want "os.Getenv is a nondeterministic source"
	_ = rand.Intn(10)         // want "rand.Intn is a nondeterministic source"
	buf := make([]byte, 8)
	_, _ = crand.Read(buf)
	return time.Since(start) // want "time.Since is a nondeterministic source"
}

// Good measures host throughput intentionally and draws randomness
// from an explicitly seeded generator.
func Good() int64 {
	start := time.Now() //emx:hostclock wall-clock throughput measurement only
	r := rand.New(rand.NewSource(1))
	n := r.Intn(10)
	_ = time.Since(start) //emx:hostclock
	return int64(n)
}

//emx:hostclock // want "unused //emx:hostclock directive"
var Seed = int64(42)
