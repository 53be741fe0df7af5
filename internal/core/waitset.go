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

// waiter is one blocked thread and what it waits for: cond, or, when
// cond is nil, *ctr reaching want (Barrier's closure-free form).
type waiter struct {
	t    *thr
	cond func() bool
	ctr  *uint64
	want uint64
}

// ready reports whether the waiter's condition holds.
func (w *waiter) ready() bool {
	if w.cond != nil {
		return w.cond()
	}
	return *w.ctr >= w.want
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
		if w.t.state == stBlocked && w.ready() {
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
		tc.t.wait(kind, ws, waiter{cond: cond})
	}
}

// waitCount is WaitUntil for the condition *ctr >= want, without a
// closure: Barrier blocks through it on every episode.
func (tc *TC) waitCount(kind metrics.SwitchKind, ws *WaitSet, ctr *uint64, want uint64) {
	for *ctr < want {
		tc.t.wait(kind, ws, waiter{ctr: ctr, want: want})
	}
}

// wait stages w and suspends the thread on ws once.
func (t *thr) wait(kind metrics.SwitchKind, ws *WaitSet, w waiter) {
	t.opKind, t.opWS, t.opWaiter = kind, ws, w
	t.yieldOp(opWait)
}
