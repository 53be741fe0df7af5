package lint_test

import (
	"testing"

	"emx/internal/lint"
	"emx/internal/lint/linttest"
)

// Every analyzer is exercised against a fixture package holding both
// violations (lines with want comments) and deliberately clean code
// that must NOT be reported — linttest fails on unexpected findings,
// so the clean lines are as much a part of the test as the wanted ones.

func TestDetSourceCritical(t *testing.T) { linttest.Run(t, "detsource_crit", lint.DetSource) }

func TestDetSourceClean(t *testing.T) { linttest.Run(t, "detsource_clean", lint.DetSource) }

func TestMapOrder(t *testing.T) { linttest.Run(t, "maporder", lint.MapOrder) }

func TestHotAlloc(t *testing.T) { linttest.Run(t, "hotalloc", lint.HotAlloc) }

func TestSimTime(t *testing.T) { linttest.Run(t, "simtime", lint.SimTime) }

func TestFlushBefore(t *testing.T) { linttest.Run(t, "flushbefore", lint.FlushBefore) }

func TestDirective(t *testing.T) { linttest.Run(t, "directive", lint.EmxDirective) }

func TestFingerprintPurity(t *testing.T) { linttest.Run(t, "fingerprint", lint.FingerprintPurity) }

func TestObsPurity(t *testing.T) { linttest.Run(t, "obs", lint.ObsPurity) }

func TestHotPropagate(t *testing.T) { linttest.Run(t, "hotpropagate", lint.HotPropagate) }

func TestByName(t *testing.T) {
	for _, a := range lint.Analyzers() {
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName of unknown analyzer must return nil")
	}
}
