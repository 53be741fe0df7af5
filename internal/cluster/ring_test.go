package cluster

import (
	"fmt"
	"testing"

	"emx/internal/ring"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		// Shaped like the real routing keys: RunIdentity content hashes.
		out[i] = fmt.Sprintf("run-key-%04d", i)
	}
	return out
}

func TestRingStableOwnership(t *testing.T) {
	members := []string{"http://c:8484", "http://a:8484", "http://b:8484"}
	r1 := ring.New(members)
	r2 := ring.New([]string{"http://b:8484", "http://a:8484", "http://c:8484", "http://a:8484"})
	if r1.Len() != 3 || r2.Len() != 3 {
		t.Fatalf("dedup/len wrong: %d, %d", r1.Len(), r2.Len())
	}
	for _, k := range keys(200) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("owner of %q depends on construction order", k)
		}
		ranked := r1.Ranked(k)
		if len(ranked) != 3 || ranked[0] != r1.Owner(k) {
			t.Fatalf("Ranked(%q) = %v, owner %q", k, ranked, r1.Owner(k))
		}
	}
}

// TestRingMinimalRemap is the rendezvous-hashing acceptance test: when
// one member departs, only the keys it owned change owner — everyone
// else's shard (and therefore their warm run cache) is untouched.
func TestRingMinimalRemap(t *testing.T) {
	members := []string{"http://a:8484", "http://b:8484", "http://c:8484", "http://d:8484"}
	full := ring.New(members)
	departed := members[1]
	reduced := ring.New([]string{members[0], members[2], members[3]})

	moved, kept, owned := 0, 0, 0
	for _, k := range keys(1000) {
		before, after := full.Owner(k), reduced.Owner(k)
		if before == departed {
			owned++
			// Must move, and precisely to the second-ranked member.
			if after == departed {
				t.Fatalf("key %q still owned by departed member", k)
			}
			if want := full.Ranked(k)[1]; after != want {
				t.Fatalf("key %q moved to %q, want second-ranked %q", k, after, want)
			}
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q reshuffled from %q to %q though its owner stayed", k, before, after)
		}
		kept++
	}
	if owned == 0 {
		t.Fatal("departed member owned no keys; test is vacuous")
	}
	if moved+kept != 1000 {
		t.Fatalf("accounting: moved %d + kept %d != 1000", moved, kept)
	}
	// HRW should spread keys roughly evenly: the departed quarter of a
	// 4-node ring should own somewhere near 250 of 1000 keys.
	if owned < 150 || owned > 350 {
		t.Errorf("departed member owned %d/1000 keys; distribution badly skewed", owned)
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if ring.New(nil).Owner("k") != "" {
		t.Error("empty ring must own nothing")
	}
	one := ring.New([]string{"http://only:8484"})
	if one.Owner("k") != "http://only:8484" || len(one.Ranked("k")) != 1 {
		t.Error("single-member ring must own everything")
	}
}
