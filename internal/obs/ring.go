package obs

// Ring is a bounded FIFO over a preallocated buffer: pushing beyond
// capacity overwrites the oldest element (flight-recorder semantics —
// the newest events are the ones a post-mortem wants).
//
// A Ring is not safe for concurrent use; a simulation is single-threaded
// and each concurrent run owns its own tracer.
type Ring[T any] struct {
	buf   []T
	start int // index of the oldest element
	n     int // live elements
}

// DefaultCapacity is the ring size used when a caller passes <= 0.
const DefaultCapacity = 1 << 16

// NewRing returns a ring holding at most capacity elements
// (DefaultCapacity when capacity <= 0).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v. When the ring is full the oldest element is evicted
// and returned with dropped=true.
func (r *Ring[T]) Push(v T) (evicted T, dropped bool) {
	if r.n == len(r.buf) {
		evicted = r.buf[r.start]
		r.buf[r.start] = v
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
		return evicted, true
	}
	i := r.start + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
	return evicted, false
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return r.n }

// Snapshot returns the retained elements oldest-first in a fresh slice.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, r.n)
	head := len(r.buf) - r.start
	if head > r.n {
		head = r.n
	}
	copy(out, r.buf[r.start:r.start+head])
	copy(out[head:], r.buf[:r.n-head])
	return out
}
