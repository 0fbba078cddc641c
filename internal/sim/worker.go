//go:build go1.23

package sim

import "iter"

// worker is a coroutine (iter.Pull) that runs stackful procs to completion,
// one after another; a Sim starts one only when a proc must start while
// every worker it has is in the middle of another proc. p is the proc the worker is
// running (or about to), nil while it sits in Sim.idle. Only the loop
// goroutine resumes a worker (Sim.resumeFrom, and Sim.unwind for a kill),
// and a worker gives the baton back only by yielding to it: a switch from
// one proc to another is a yield and a resume, with no trip through the Go
// scheduler. Each worker is a goroutine of its own until shutdown stops it.
type worker struct {
	p      *Proc
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// newWorker creates a worker bound to p; its coroutine starts on the first
// resume.
func newWorker(p *Proc) *worker {
	w := &worker{p: p}
	w.resume, w.stop = iter.Pull(w.run)
	return w
}

// run is a worker's coroutine. Each turn runs w.p to completion and then,
// still holding the baton, advances the schedule: a proc that has not
// started yet runs right here, with no switch; otherwise the worker joins
// the idle list — only now, so that nothing pickNext spawned can have been
// bound to it — names the next proc and yields to the loop goroutine, which
// resumes it. A killed proc's worker picks nothing: the baton goes back to
// the killer. It returns when shutdown stops it.
func (w *worker) run(yield func(struct{}) bool) {
	w.yield = yield
	for {
		p := w.p
		s := p.sim
		var next *Proc
		if !p.exec() { // not killed: the baton is still ours
			if next = s.pickNext(); next != nil && next.w == nil {
				w.p, next.w = next, w
				continue
			}
		}
		w.p = nil
		s.idle = append(s.idle, w)
		s.next = next
		if !yield(struct{}{}) {
			return
		}
	}
}
