package sim

// key orders everything an engine dispatches: by time, then by the
// engine-wide sequence number drawn when the item was scheduled, so
// same-cycle items run in scheduling order whichever calendar holds
// them.
type key struct {
	at  Time
	seq uint64
}

func (a key) before(b key) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

const (
	// ringBits sets the near-future window: items within ringSize cycles
	// of the clock go to the bucket ring, everything else to the heap.
	ringBits = 9
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// slot is one slab entry: a near-future item, its sequence number and
// the slab index of the next item in its bucket (or of the next free
// slot). Its time is its bucket's. Index 0 is a sentinel meaning "none".
type slot[T any] struct {
	seq  uint64
	item T
	next int32
}

// bucket holds the items of one cycle as a FIFO list of slab indices:
// items appended mid-drain (zero-delay chains) go behind the tail and
// keep scheduling order. head == 0 means empty.
type bucket struct {
	head, tail int32
}

// farItem is a heap entry: an item scheduled beyond the ring window.
type farItem[T any] struct {
	key  key
	item T
}

// head is a calendar's earliest pending key and its item count: all the
// engine reads to merge an attached calendar into dispatch.
type head struct {
	key key
	n   int
}

// Calendar is a typed event queue: a ring of one-cycle buckets for the
// near future over one slot slab with a free list, and a binary heap on
// key for items beyond the ring window. The slab grows only to the peak
// number of pending near items, and once it has, scheduling does not
// allocate. The engine keeps its own events on one (see Engine), and a
// component keeps its steps on another, attached to the engine with
// Attach, so they are stored as compact typed items instead of handlers.
//
// The calendar caches the key of its earliest item: a push compares
// against it, and a pop finds the next one with a single scan.
type Calendar[T any] struct {
	hd head
	// hdFar reports that the head item is on the heap.
	hdFar bool

	// near counts the ring's items.
	near int
	// slab stores the ring's items; free heads the list of released
	// slots. slab[0] is the sentinel, appended on the first push, so the
	// zero Calendar needs no constructor.
	slab []slot[T]
	free int32
	// cursor is the scan position for the next non-empty bucket. It is
	// lowered by pushes below it and never advanced past the earliest
	// live ring item, so the scan cannot skip the minimum.
	cursor Time

	// far is the overflow heap, ordered by key.
	far []farItem[T]

	// eng is the engine an attached calendar draws its keys from.
	eng *Engine

	// ring holds near-future items, one bucket per cycle, indexed by
	// time&ringMask. All live items in one bucket share the same time:
	// items are pushed only in [now, now+ringSize) and none is pending
	// before now, so times ringSize apart are never pending together.
	// It comes last so that the fields above share cache lines.
	ring [ringSize]bucket
}

// Lane runs an attached calendar's items. The engine calls Fire with Now
// at the calendar's head; Fire removes that item (with Pop), runs it, and
// goes on with the next while the engine's LaneNext allows, so a run of
// consecutive items costs one call.
type Lane interface {
	Fire()
}

// Attach merges c into e's dispatch: e runs c's items through l.Fire,
// interleaved with its own events in key order. An engine takes one
// attached calendar; attaching a second panics.
func Attach[T any](e *Engine, c *Calendar[T], l Lane) {
	if e.lane != nil {
		panic("sim: engine already has an attached calendar")
	}
	c.eng = e
	e.lane, e.laneHd = l, &c.hd
}

// At schedules item at absolute time t on an attached calendar. Its key
// draws the engine's next sequence number, exactly as an engine event
// scheduled at this point would. Scheduling in the past panics.
func (c *Calendar[T]) At(t Time, item T) {
	c.push(c.eng, t, item)
}

// Pop removes and returns the earliest item. Caller guarantees one is
// pending.
func (c *Calendar[T]) Pop() T {
	c.hd.n--
	if c.hdFar {
		item := c.popFar()
		if c.hd.n > 0 {
			c.peek()
		}
		return item
	}
	b := &c.ring[c.hd.key.at&ringMask]
	n := b.head
	s := &c.slab[n]
	item := s.item
	b.head = s.next
	// Release the item for GC and put the slot on the free list.
	var zero T
	s.item, s.next = zero, c.free
	c.free = n
	c.near--
	if b.head == 0 {
		b.tail = 0
		if c.hd.n > 0 {
			c.peek()
		}
		return item
	}
	// The next item of the same cycle leads: the heap holds nothing
	// earlier, and nothing of this cycle, because heap items of a cycle
	// are all scheduled before its first ring item.
	c.hd.key.seq = c.slab[b.head].seq
	return item
}

// push schedules item at time t under the engine's next sequence
// number. Drawing the key here, not in its callers, keeps At and
// Engine.AtHandler small enough to inline. Scheduling in the past
// panics: it indicates a causality bug in a component model.
//
// A slot is written field by field, never as a composite literal: the
// compiler builds a pointer-bearing generic literal in a stack
// temporary and copies it into the slab, which doubles the stores,
// defeats store-to-load forwarding and copies through runtime.wbMove
// while the GC marks.
func (c *Calendar[T]) push(e *Engine, t Time, item T) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	k := key{t, e.seq}
	near := t-e.now < ringSize
	// Keys are pushed in sequence order, so a new item leads only if it
	// is strictly earlier.
	if c.hd.n == 0 || k.at < c.hd.key.at {
		c.hd.key, c.hdFar = k, !near
	}
	c.hd.n++
	if !near {
		c.pushFar(k, item)
		return
	}
	n := c.alloc()
	s := &c.slab[n]
	s.seq, s.item, s.next = k.seq, item, 0
	b := &c.ring[k.at&ringMask]
	if b.tail == 0 {
		b.head = n
	} else {
		c.slab[b.tail].next = n
	}
	b.tail = n
	if c.near == 0 || k.at < c.cursor {
		c.cursor = k.at
	}
	c.near++
}

// alloc returns a free slab slot, growing the slab only when none is
// free.
func (c *Calendar[T]) alloc() int32 {
	if n := c.free; n != 0 {
		c.free = c.slab[n].next
		return n
	}
	if len(c.slab) == 0 {
		c.slab = append(c.slab, slot[T]{}) // the sentinel
	}
	c.slab = append(c.slab, slot[T]{})
	return int32(len(c.slab) - 1)
}

// peek caches the earliest pending key. Caller guarantees an item is
// pending.
// The ring scan is bounded by ringSize because the earliest live ring
// item is always within ringSize cycles of cursor.
func (c *Calendar[T]) peek() {
	if c.near == 0 {
		c.hd.key, c.hdFar = c.far[0].key, true
		return
	}
	for c.ring[c.cursor&ringMask].head == 0 {
		c.cursor++
	}
	k := key{c.cursor, c.slab[c.ring[c.cursor&ringMask].head].seq}
	if len(c.far) > 0 && c.far[0].key.before(k) {
		c.hd.key, c.hdFar = c.far[0].key, true
		return
	}
	c.hd.key, c.hdFar = k, false
}

func (c *Calendar[T]) pushFar(k key, item T) {
	c.far = append(c.far, farItem[T]{})
	i := len(c.far) - 1
	c.far[i].key, c.far[i].item = k, item
	for i > 0 {
		parent := (i - 1) / 2
		if !c.far[i].key.before(c.far[parent].key) {
			break
		}
		c.far[i], c.far[parent] = c.far[parent], c.far[i]
		i = parent
	}
}

func (c *Calendar[T]) popFar() T {
	top := c.far[0].item
	last := len(c.far) - 1
	c.far[0] = c.far[last]
	var zero T
	c.far[last].item = zero // release the item for GC
	c.far = c.far[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && c.far[l].key.before(c.far[small].key) {
			small = l
		}
		if r < last && c.far[r].key.before(c.far[small].key) {
			small = r
		}
		if small == i {
			break
		}
		c.far[i], c.far[small] = c.far[small], c.far[i]
		i = small
	}
	return top
}
