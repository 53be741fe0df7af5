package lint

import "strings"

// The determinism-critical package sets. Two tiers:
//
//   - critical: packages whose output must be bit-for-bit reproducible
//     — the simulator, its figure-producing pipeline, and the serving
//     layer whose CSV/JSON/metrics dumps are compared across runs.
//     detsource and maporder apply here.
//
//   - simCore: the simulation proper, where *all* time is cycle
//     counts. The strict simtime mixing rule applies here;
//     host-observability fields (Run.HostElapsedSecs) legally mix with
//     cycle counts one level up, in the critical tier.
//
// A package outside these lists opts in by carrying //emx:determinism
// in its package doc comment (that grants both tiers). To grow the
// static set instead, add the import path prefix below and document it
// in DESIGN.md.
var (
	criticalPrefixes = []string{
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
	simCorePrefixes = []string{
		"emx/internal/core",
		"emx/internal/sim",
		"emx/internal/network",
		"emx/internal/memory",
		"emx/internal/proc",
		"emx/internal/thread",
		"emx/internal/packet",
		"emx/internal/isa",
		"emx/internal/apps",
	}
)

// isCritical reports whether the package must produce reproducible
// output (detsource/maporder scope).
func isCritical(pkg *Package) bool {
	return hasPrefix(pkg.ImportPath, criticalPrefixes) ||
		pkg.Directives.HasPackageDirective(DirDeterminism)
}

// isSimCore reports whether the package is part of the simulation
// proper (strict simtime scope).
func isSimCore(pkg *Package) bool {
	return hasPrefix(pkg.ImportPath, simCorePrefixes) ||
		pkg.Directives.HasPackageDirective(DirDeterminism)
}

func hasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
