package lint

import "testing"

// The detsource_crit and maporder fixtures stand for determinism-critical
// packages. No pattern outside the tests loads testdata, so adding them
// here changes nothing emxvet reports on the module.
func init() {
	criticalPrefixes = append(criticalPrefixes,
		"emx/internal/lint/testdata/src/detsource_crit",
		"emx/internal/lint/testdata/src/maporder")
}

func TestCriticalTiers(t *testing.T) {
	cases := []struct {
		path     string
		critical bool
	}{
		// The simulation proper. Seeding a time.Now call into any of
		// these packages fails emxvet (see the detsource_crit fixture
		// for the diagnostic itself).
		{"emx/internal/core", true},
		{"emx/internal/sim", true},
		{"emx/internal/network", true},
		{"emx/internal/memory", true},
		{"emx/internal/proc", true},
		{"emx/internal/thread", true},
		{"emx/internal/packet", true},
		{"emx/internal/isa", true},
		{"emx/internal/apps", true},
		{"emx/internal/apps/bitonic", true}, // subpackages inherit

		// Figure-producing and serving layers: reproducible output, but
		// they legally measure host throughput (annotated).
		{"emx/internal/harness", true},
		{"emx/internal/metrics", true},
		{"emx/internal/labd", true},
		{"emx/internal/labd/service", true},
		{"emx/internal/cluster", true}, // failover must be byte-transparent
		{"emx/internal/load", true},    // seeded traffic, deterministic reports
		{"emx/cmd/emxbench", true},
		{"emx/cmd/emxcluster", true},
		{"emx/cmd/emxload", true},

		// Everything else is out of scope.
		{"emx/internal/lint", false},
		{"emx/cmd/emxvet", false},
		{"emx/internal/simulator", false}, // prefix match is path-boundary aware
	}
	for _, c := range cases {
		pkg := &Package{ImportPath: c.path, Directives: &Directives{}}
		if got := isCritical(pkg); got != c.critical {
			t.Errorf("isCritical(%s) = %v, want %v", c.path, got, c.critical)
		}
	}
}
