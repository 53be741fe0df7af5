package lint_test

import (
	"testing"

	"emx/internal/lint"
)

// TestRepositoryIsClean runs the full analyzer suite over the whole
// module — the same check CI's emxvet step performs. The repository
// must stay diagnostic-free: true positives get fixed, intentional
// sites get annotated, and this test catches both kinds of regression.
//
// Fixture packages live under testdata and are invisible to the
// wildcard, so their deliberate violations do not appear here.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("", "emx/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := lint.Run(pkgs, lint.Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d findings: fix true positives or annotate intentional sites (//emx:hostclock, //emx:orderinvariant)", len(diags))
	}
}
