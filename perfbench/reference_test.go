package main

import (
	"math"
	"testing"
)

// The simulator reference computes the same checksum for the same
// events and seed, and another for another seed, so a burst can be
// checked against the first.
func TestSimRefIsDeterministic(t *testing.T) {
	a, b, c := simRef(5000, 1), simRef(5000, 1), simRef(5000, 2)
	if a != b {
		t.Fatalf("same input, checksums %x and %x", a, b)
	}
	if a == c {
		t.Fatalf("seeds 1 and 2 gave the same checksum %x", a)
	}
	clk := newSimClock(2, 2000)
	for range 3 {
		if err := clk.burst(); err != nil {
			t.Fatal(err)
		}
	}
	if len(clk.times) != 3 || clk.nominal != 3 {
		t.Fatalf("clock %+v: want 3 bursts, nominal 3 ms", clk.refClock)
	}
}

// Scaling multiplies times by the factor and divides the rate by it,
// and keeps the raw values.
func TestAtRefSpeed(t *testing.T) {
	clk := &refClock{nominal: 2, times: []float64{1, 4, 5}} // median 4: this host ran at half speed
	f := clk.factor()
	if f != 0.5 {
		t.Fatalf("factor %g, want 0.5", f)
	}
	r := newReport()
	r.set("primary_ms", 10)
	r.set("throughput_per_s", 100)
	r.atRefSpeed(f, "primary_ms", "throughput_per_s")
	if r.values["primary_ms"] != 5 || r.values["throughput_per_s"] != 200 {
		t.Fatalf("scaled %v, want 5 ms and 200/s", r.values)
	}
	if r.detail["raw.primary_ms"] != 10.0 || r.detail["raw.throughput_per_s"] != 100.0 {
		t.Fatalf("raw values not kept: %v", r.detail)
	}
	if f := (&refClock{nominal: 2}).factor(); f != 0 || math.IsNaN(f) {
		t.Fatalf("a clock without bursts has factor %g, want 0", f)
	}
}

func TestHTTPRefServes(t *testing.T) {
	ref, err := startHTTPRef(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	clk := &refClock{nominal: httpRefNominalMS}
	if err := ref.burst(clk, 2); err != nil {
		t.Fatal(err)
	}
	if len(clk.times) != 1 || clk.times[0] <= 0 {
		t.Fatalf("burst times %v", clk.times)
	}
}
