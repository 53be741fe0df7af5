package core

import "emx/internal/metrics"

// WaitSet holds threads blocked on conditions over shared state — the
// runtime's synchronization primitive beneath barriers and the sorting
// workload's merge turn-taking.
//
// A thread that fails its condition suspends (registers are saved to the
// activation frame, one classified switch is charged) and the EXU
// dispatches other work; if nothing is ready the EXU idles, and that wait
// is accounted as communication time — matching the paper's measurement,
// where synchronization stalls surface in the communication component
// rather than as endless spin switching. The code that changes the
// watched state calls Notify to re-evaluate conditions and requeue
// satisfied threads through the normal FIFO.
type WaitSet struct {
	m       *Machine
	waiters []waiter
}

type waiter struct {
	t    *thr
	cond func() bool
}

// NewWaitSet creates a wait set bound to the machine.
func (m *Machine) NewWaitSet() *WaitSet { return &WaitSet{m: m} }

// Notify re-checks all waiters and wakes those whose condition now holds
// by pushing their continuation into the owning PE's packet queue (FIFO,
// zero-cost locally — the cost is paid at dispatch/restore, as on the
// hardware). Safe to call from workload code and from packet handlers:
// both run in engine context.
func (ws *WaitSet) Notify() {
	kept := ws.waiters[:0]
	for _, w := range ws.waiters {
		if w.t.state == stBlocked && w.cond() {
			w.t.state = stQueued
			ws.m.wakeBlocked(w.t)
		} else {
			kept = append(kept, w)
		}
	}
	ws.waiters = kept
}

// Waiting returns the number of blocked threads in the set.
func (ws *WaitSet) Waiting() int { return len(ws.waiters) }

// WaitUntil blocks the calling thread until cond holds. The check itself
// costs SpinCheckCycles; if it fails, the thread suspends and one switch
// of the given kind is recorded. State examined by cond must only change
// in engine context (workload code or packet handlers), and every change
// must be followed by ws.Notify().
func (tc *TC) WaitUntil(kind metrics.SwitchKind, ws *WaitSet, cond func() bool) {
	for !cond() {
		tc.t.yieldOp(opWait{kind: kind, ws: ws, cond: cond})
	}
}

// opWait suspends the thread on a wait set.
type opWait struct {
	kind metrics.SwitchKind
	ws   *WaitSet
	cond func() bool
}
