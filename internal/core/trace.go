package core

import (
	"emx/internal/obs"
	"emx/internal/packet"
	"emx/internal/sim"
)

// TraceKind labels a thread lifecycle event.
type TraceKind uint8

const (
	// TraceStart: a thread was invoked and began executing.
	TraceStart TraceKind = iota
	// TraceRun: a suspended/queued thread resumed on the EXU.
	TraceRun
	// TraceReadIssue: the thread issued a split-phase read and suspended.
	TraceReadIssue
	// TraceYield: the thread switched out voluntarily (spin/sync).
	TraceYield
	// TraceEnd: the thread completed.
	TraceEnd
)

func (k TraceKind) String() string {
	switch k {
	case TraceStart:
		return "start"
	case TraceRun:
		return "run"
	case TraceReadIssue:
		return "read"
	case TraceYield:
		return "yield"
	case TraceEnd:
		return "end"
	}
	return "?"
}

// TraceEvent is one thread lifecycle transition, as the hardware's
// instrumentation would report it.
type TraceEvent struct {
	At     sim.Time
	PE     packet.PE
	Thread string
	Frame  uint32
	Kind   TraceKind
}

// SetTracer installs a callback receiving every thread lifecycle event.
// Must be called before Run. A nil tracer (the default) costs nothing.
func (m *Machine) SetTracer(fn func(TraceEvent)) { m.tracer = fn }

func (m *Machine) trace(k TraceKind, t *thr) {
	// TraceKind and obs.ThreadKind are numerically aligned by definition.
	m.obs.Thread(int64(m.Eng.Now()), int32(t.pe), obs.ThreadKind(k), t.frame)
	if m.tracer == nil {
		return
	}
	m.tracer(TraceEvent{
		At:     m.Eng.Now(),
		PE:     t.pe,
		Thread: t.name,
		Frame:  t.frame,
		Kind:   k,
	})
}
