// Package ring implements the rendezvous-hashing (highest-random-
// weight) ring the cluster layer routes by. It lives below both
// internal/cluster (gateway + failover client) and internal/labd/service
// (cache replication) so the two layers agree bit-for-bit on every
// key's ranked replica set: the node the gateway fails over to is
// exactly the node the owner pushed the cached result to.
package ring

import (
	"hash/fnv"
	"sort"
	"strings"
)

// Ring is a rendezvous-hashing ring over a fixed member set. Each
// (member, key) pair gets a pseudo-random score; a key's owner is the
// member with the highest score, and the descending score order is the
// key's replica/failover preference. When one member departs, only the
// keys it owned move (each to its second-ranked member) — every other
// key keeps its owner, which is what keeps the sharded run caches warm
// when a member fails.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	members []string // sorted, deduplicated
}

// New builds a ring over the given member identifiers (node base URLs).
// Members are deduplicated and sorted, so rings built from the same set
// in any order behave identically.
func New(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	ms := make([]string, 0, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			ms = append(ms, m)
		}
	}
	sort.Strings(ms)
	return &Ring{members: ms}
}

// ParseMembers parses a comma-separated member list (node base URLs as
// a flag spells them): blanks and trailing slashes are trimmed and
// empty entries dropped, so "http://a/, http://b," and "http://a,http://b"
// name the same members. Every binary parses its node list here, which
// keeps each node's replica ring and the gateway's ring bit-identical.
func ParseMembers(list string) []string {
	var out []string
	for _, m := range strings.Split(list, ",") {
		if m = strings.TrimRight(strings.TrimSpace(m), "/"); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// Members returns the ring's member set in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// score is the HRW weight of key on member: a 64-bit FNV-1a hash over
// member and key with a fixed separator, passed through a full-avalanche
// finalizer. The finalizer matters: FNV alone leaves the high bits of
// similar inputs correlated, which skews HRW's argmax badly.
// Deterministic across processes, hosts, and Go versions (unlike map
// iteration or the runtime's seeded string hash).
func score(member, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(member))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the 64-bit finalizer from MurmurHash3: every input bit
// avalanches to every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owner returns the member that owns key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	var (
		best      string
		bestScore uint64
	)
	for _, m := range r.members {
		if s := score(m, key); best == "" || s > bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best
}

// Ranked returns every member ordered by descending preference for
// key: the owner first, then the member each successive failover
// falls to. Ties break toward the lexicographically smaller member so
// the order is total and deterministic.
func (r *Ring) Ranked(key string) []string {
	type ms struct {
		m string
		s uint64
	}
	scored := make([]ms, len(r.members))
	for i, m := range r.members {
		scored[i] = ms{m, score(m, key)}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].s != scored[j].s {
			return scored[i].s > scored[j].s
		}
		return scored[i].m < scored[j].m
	})
	out := make([]string, len(scored))
	for i, e := range scored {
		out[i] = e.m
	}
	return out
}

// Score exposes the HRW weight of key on member for callers that need
// deterministic key-derived pseudo-randomness consistent with the ring
// (the cluster client's retry jitter).
func Score(member, key string) uint64 { return score(member, key) }

// Mix64 exposes the avalanche finalizer (see mix64).
func Mix64(x uint64) uint64 { return mix64(x) }

// ReplicaSet returns the first n entries of Ranked(key) — the members
// that should hold key's replicated cache entry. n larger than the
// member count yields every member.
func (r *Ring) ReplicaSet(key string, n int) []string {
	ranked := r.Ranked(key)
	if n < len(ranked) {
		ranked = ranked[:n]
	}
	return ranked
}
