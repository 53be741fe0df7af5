package sim

// Resource models a unit-capacity pipelined server (a switch output port,
// a memory port, a DMA engine): each job occupies the resource for a fixed
// or per-job number of cycles, jobs are granted strictly in request order,
// and a request made while the resource is busy is queued implicitly by
// pushing its grant time forward. This "busy-until" reservation style is
// exact for FIFO servers and avoids simulating per-cycle arbitration.
type Resource struct {
	freeAt Time
}

// Acquire reserves the resource for dur cycles starting no earlier than
// now, and returns the time at which the reservation completes. Callers
// typically schedule their follow-up event at the returned time.
func (r *Resource) Acquire(now, dur Time) Time {
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + dur
	return r.freeAt
}

// FreeAt reports when the resource becomes idle given no further requests.
func (r *Resource) FreeAt() Time { return r.freeAt }
