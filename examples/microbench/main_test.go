package main

import (
	"fmt"
	"testing"
)

// TestCitedNumbers pins the figures EXPERIMENTS.md cites from this
// example: 31.2 and 37.2 cycles per exposed remote read at P=16 and
// P=64 (the T-lat row), and 1.00 overhead cycle per generated packet
// (the overhead-probe row).
func TestCitedNumbers(t *testing.T) {
	results, err := measure()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name, perUnit string
		p             int
	}{{"latency", "31.2", 16}, {"latency", "37.2", 64}, {"nulloop", "1.00", 16}}
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i, w := range want {
		r := results[i]
		format := "%.1f"
		if r.name == "nulloop" {
			format = "%.2f"
		}
		if got := fmt.Sprintf(format, r.perUnit()); r.name != w.name || r.p != w.p || got != w.perUnit {
			t.Errorf("result %d: %s at P=%d reads %s, want %s at P=%d reads %s",
				i, r.name, r.p, got, w.name, w.p, w.perUnit)
		}
	}
}
