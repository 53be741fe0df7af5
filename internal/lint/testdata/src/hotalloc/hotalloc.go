// Package hotalloc exercises the hot-path allocation analyzer.
package hotalloc

type ev struct {
	seq uint64
}

type q struct {
	heap []ev
	sink any
}

// push is the hot insert path: appending to a struct field reuses the
// backing array, so it passes.
//
//emx:hotpath
func (s *q) push(e ev) {
	s.heap = append(s.heap, e)
}

//emx:hotpath
func (s *q) bad(n int) {
	s.sink = n                           // want "value of type int is boxed into an interface in hot-path function bad"
	fn := func() { s.heap = s.heap[:0] } // want "closure literal in hot-path function bad"
	fn()
	var tmp []ev
	tmp = append(tmp, ev{}) // want "append to slice tmp not preallocated"
	s.heap = tmp
}

//emx:hotpath
func (s *q) okPaths(e ev) {
	buf := make([]ev, 0, 8)
	buf = append(buf, e)
	s.heap = buf
	s.sink = &e // pointer-shaped: no boxing
	if len(s.heap) > 1024 {
		panic("hotalloc: queue overflow") // constant: backed by static data
	}
}

//emx:hotpath
func (s *q) coldError(n int) {
	if n < 0 {
		s.sink = n //emx:coldpath diagnostics only, never reached per event
	}
}

// coldAlloc is unmarked: it may allocate freely.
func (s *q) coldAlloc(n int) {
	s.sink = n
}

// Directives that govern nothing are reported, never silently kept.

//emx:hotpath // want "unused //emx:hotpath directive"
var depth int

//emx:coldpath // want "unused //emx:coldpath directive"
func neverHot() int { return depth }
