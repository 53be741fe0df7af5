package main

import (
	"fmt"
	"testing"
)

// TestCitedOverlap pins the figures EXPERIMENTS.md's X-80 row cites
// from this example: the 80-PE kernel overlaps 96.4% of its
// communication at h=4 and 97.2% at h=8.
func TestCitedOverlap(t *testing.T) {
	rows, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{1: "0.0", 2: "81.6", 4: "96.4", 8: "97.2"}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if got := fmt.Sprintf("%.1f", r.overlap); got != want[r.h] {
			t.Errorf("h=%d: overlap %s%%, want %s%%", r.h, got, want[r.h])
		}
	}
}
