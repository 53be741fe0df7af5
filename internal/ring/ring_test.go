package ring

import (
	"fmt"
	"reflect"
	"testing"
)

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://node-%02d:9000", i)
	}
	return out
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%04d", i)
	}
	return out
}

// TestNewDedupesAndSorts: rings built from the same member set in any
// order, with duplicates and empties, are identical.
func TestNewDedupesAndSorts(t *testing.T) {
	a := New([]string{"c", "a", "b"})
	b := New([]string{"b", "", "a", "c", "a", "c"})
	if !reflect.DeepEqual(a.Members(), []string{"a", "b", "c"}) {
		t.Fatalf("members %v", a.Members())
	}
	if !reflect.DeepEqual(a.Members(), b.Members()) {
		t.Fatalf("member order depends on construction: %v vs %v", a.Members(), b.Members())
	}
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("lengths %d, %d", a.Len(), b.Len())
	}
	for _, k := range keys(50) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q depends on construction order", k)
		}
	}
}

// TestRankedIsTotalOrder: Ranked returns every member exactly once,
// with the owner first.
func TestRankedIsTotalOrder(t *testing.T) {
	r := New(members(5))
	for _, k := range keys(100) {
		ranked := r.Ranked(k)
		if len(ranked) != r.Len() {
			t.Fatalf("Ranked(%q) has %d entries, want %d", k, len(ranked), r.Len())
		}
		if ranked[0] != r.Owner(k) {
			t.Fatalf("Ranked(%q)[0] = %q, Owner = %q", k, ranked[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, m := range ranked {
			if seen[m] {
				t.Fatalf("Ranked(%q) repeats %q", k, m)
			}
			seen[m] = true
		}
	}
}

// TestReplicaSetIsRankedPrefix: the replica set is exactly the first n
// ranked members, and n beyond the member count yields every member.
func TestReplicaSetIsRankedPrefix(t *testing.T) {
	r := New(members(5))
	for _, k := range keys(40) {
		ranked := r.Ranked(k)
		for n := 1; n <= 7; n++ {
			set := r.ReplicaSet(k, n)
			want := ranked
			if n < len(want) {
				want = want[:n]
			}
			if !reflect.DeepEqual(set, want) {
				t.Fatalf("ReplicaSet(%q, %d) = %v, want prefix %v", k, n, set, want)
			}
		}
	}
}

// TestMinimalRemapOnDeparture is the property replication leans on:
// when one member leaves, every key it did not own keeps its owner, and
// every key it owned moves to exactly its old second-ranked member —
// the node the owner was pushing replicas to.
func TestMinimalRemapOnDeparture(t *testing.T) {
	ms := members(5)
	full := New(ms)
	gone := ms[2]
	var rest []string
	for _, m := range ms {
		if m != gone {
			rest = append(rest, m)
		}
	}
	shrunk := New(rest)

	moved := 0
	for _, k := range keys(200) {
		before := full.Ranked(k)
		after := shrunk.Owner(k)
		if before[0] != gone {
			if after != before[0] {
				t.Fatalf("key %q moved from %q to %q although its owner stayed", k, before[0], after)
			}
			continue
		}
		moved++
		if after != before[1] {
			t.Fatalf("key %q owned by the departed member moved to %q, want its second rank %q", k, after, before[1])
		}
	}
	if moved == 0 {
		t.Fatal("departed member owned no keys; the property was never exercised")
	}
}

// TestEmptyAndSingleRing: degenerate rings behave sanely.
func TestEmptyAndSingleRing(t *testing.T) {
	empty := New(nil)
	if empty.Owner("k") != "" || empty.Len() != 0 || len(empty.ReplicaSet("k", 3)) != 0 {
		t.Fatal("empty ring misbehaves")
	}
	solo := New([]string{"only"})
	if solo.Owner("k") != "only" {
		t.Fatalf("owner %q", solo.Owner("k"))
	}
	if got := solo.ReplicaSet("k", 2); !reflect.DeepEqual(got, []string{"only"}) {
		t.Fatalf("ReplicaSet = %v", got)
	}
}

// TestScoreMixExported: the exported Score/Mix64 match the internal
// functions the ring routes by, so client-side jitter derived from them
// stays consistent with routing.
func TestScoreMixExported(t *testing.T) {
	if Score("m", "k") != score("m", "k") {
		t.Fatal("Score diverges from score")
	}
	if Mix64(12345) != mix64(12345) {
		t.Fatal("Mix64 diverges from mix64")
	}
	// Avalanche sanity: one flipped input bit moves many output bits.
	if Mix64(1) == Mix64(2) {
		t.Fatal("mix64 collides on trivial inputs")
	}
}

func TestParseMembers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{" http://a:1/, ,http://b:2 ,", []string{"http://a:1", "http://b:2"}},
		{"http://a:1//,http://a:1", []string{"http://a:1", "http://a:1"}},
		{"", nil},
		{" , ,", nil},
	} {
		if got := ParseMembers(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseMembers(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// Two spellings of one member list build rings that agree on every key.
	a := New(ParseMembers("http://n1:1/, http://n2:2/ ,http://n3:3"))
	b := New(ParseMembers("http://n3:3,http://n1:1,http://n2:2"))
	for _, k := range keys(200) {
		if !reflect.DeepEqual(a.Ranked(k), b.Ranked(k)) {
			t.Fatalf("key %s ranks %v vs %v", k, a.Ranked(k), b.Ranked(k))
		}
	}
}
