// Package maporder exercises the map-iteration analyzer inside a
// determinism-critical package (the lint tests add it to the set).
package maporder

import "sort"

// Sum is a commutative reduction: order-invariant.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Keys collects then sorts before use: deterministic.
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Invert writes keyed map entries only: order-free.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Dump emits values in iteration order without sorting.
func Dump(m map[string]int) []string {
	var out []string
	for k := range m { // want "iteration over map m in determinism-critical package"
		out = append(out, k)
	}
	return out
}

// First leaks whichever key the runtime happens to yield first.
func First(m map[string]int) string {
	first := ""
	for k := range m { // want "iteration over map m"
		first = k
		break
	}
	return first
}

// MinVal is a commutative reduction the analyzer cannot prove, so the
// loop asserts it.
func MinVal(m map[string]int) int {
	best := 1 << 62
	for _, v := range m { //emx:orderinvariant min is commutative
		if v < best {
			best = v
		}
	}
	return best
}

//emx:orderinvariant // want "unused //emx:orderinvariant directive"
func NoLoop() {}
