package lint

import "strings"

// criticalPrefixes are the determinism-critical packages: those whose
// output must be bit-for-bit reproducible — the simulator, its
// figure-producing pipeline, and the serving layer whose CSV/JSON/metrics
// dumps are compared across runs. detsource and maporder apply here. To
// grow the set, add the import path prefix below and document it in
// DESIGN.md.
var criticalPrefixes = []string{
	"emx/internal/core",
	"emx/internal/sim",
	"emx/internal/network",
	"emx/internal/memory",
	"emx/internal/proc",
	"emx/internal/thread",
	"emx/internal/packet",
	"emx/internal/isa",
	"emx/internal/apps",
	"emx/internal/harness",
	"emx/internal/metrics",
	"emx/internal/obs",
	"emx/internal/dist",
	"emx/internal/analytic",
	"emx/internal/refalgo",
	"emx/internal/labd",
	"emx/internal/cluster",
	"emx/internal/ring",
	"emx/internal/load",
	"emx/cmd/emxbench",
	"emx/cmd/emxcluster",
	"emx/cmd/emxload",
	"emx/cmd/emxprof",
}

// isCritical reports whether the package must produce reproducible
// output (detsource/maporder scope). The match is on path boundaries.
func isCritical(pkg *Package) bool {
	for _, p := range criticalPrefixes {
		if pkg.ImportPath == p || strings.HasPrefix(pkg.ImportPath, p+"/") {
			return true
		}
	}
	return false
}
