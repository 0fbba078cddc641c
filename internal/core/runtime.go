package core

import (
	"time"

	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// rt abstracts the execution substrate the progress engine runs on: green
// threads, completion events and work queues. The simulated backend maps
// these 1:1 onto internal/sim (keeping virtual-time behavior bit-identical
// to the pre-seam engine); the live backend maps them onto goroutines,
// closable channels and mutex-guarded queues (runtime_live.go).
type rt interface {
	// Now returns the current time on the substrate's clock.
	Now() time.Duration
	// NewEventID creates an unfired completion with a lazily-formatted
	// "prefix:id" diagnostic name.
	NewEventID(prefix string, id int) completion
	// EventIn is NewEventID for a completion that lives exactly as long as
	// its owner: on the simulated backend the event is made in ev, storage
	// the owner embeds, and costs no allocation of its own; the live
	// backend leaves ev alone.
	EventIn(ev *sim.Event, prefix string, id int) completion
	// SpawnKernel starts c's CPU-kernel thread, which keeps the run alive
	// until the kernel returns; on the simulated backend a proc named
	// "cpu-kern:<rank>" when something asks, with c as its argument.
	SpawnKernel(c *CPUCtx)
	// SpawnStep starts a thread running s, a step machine, to its end — a
	// daemon, which does not keep the run alive, when daemon is set. On the
	// simulated backend it is a stackless proc when stackless is set (every
	// wake s registers is a step form), else a stackful proc that awaits
	// each wake in place: the host for a machine that must block in the
	// middle of a step. On the live backend it is a goroutine, on which
	// every form has blocked already, and the run's teardown waits for it
	// with the daemons that spawned it.
	SpawnStep(prefix string, id int, s stepper, daemon, stackless bool)
	// NewQueue creates an unbounded FIFO work queue, named "prefix:id" on
	// the simulated backend when something asks.
	NewQueue(prefix string, id int) commQueue
	// After schedules fn to run once d of substrate time has elapsed,
	// returning a cancel function; fn must not block. Cancel is
	// best-effort: it guarantees fn will not run if it has not started, and
	// is safe to call after fn ran. Used for ack-retransmit timeouts
	// (reliable.go).
	After(d time.Duration, fn func()) (cancel func())
}

// stepper is a thread's body written once, as a step machine, for every
// host (rt.SpawnStep). step advances it on h as far as it can go and
// reports whether it has ended; if it has not, a step form (sleepStep,
// completion.WaitStep, a lane's sendStep and recvStep) has registered h's
// next wake, and the host runs step again when it comes. On a host that
// blocks, a form blocks in place and reports itself done, so step runs on:
// on the live backend, one step is the whole machine.
type stepper interface{ step(h transport.Proc) bool }

// sleepStep charges d of modeled time to h as a step form, scaled by jit:
// on a simulated proc it registers the wake d from now and reports false;
// on the live backend, where costs are real, it charges nothing.
func sleepStep(h transport.Proc, jit *sim.Jitter, d time.Duration) bool {
	if sp, ok := h.(*sim.Proc); ok {
		sp.SleepStep(jit.Scale(d))
		return false
	}
	return true
}

// await blocks h until the wake a step form registered comes: the
// blocking half of every blocking form. A live form has blocked already
// and never asks for it.
func await(h transport.Proc) { h.(*sim.Proc).Await() }

// completion is a one-shot broadcast signal completing one request.
type completion interface {
	// Fire signals completion, waking all waiters; firing twice is a no-op.
	Fire()
	// Fired reports whether Fire has been called.
	Fired() bool
	// Wait blocks the calling thread until the completion fires.
	Wait(p transport.Proc)
	// WaitStep is Wait's step form: it reports whether the completion has
	// fired, and on a simulated proc registers p's wake for when it does
	// if not; on the live backend it blocks until then.
	WaitStep(p transport.Proc) bool
}

// commQueue is the unbounded FIFO feeding a comm thread: Put never
// blocks, and GetStep is the one way to take an event, a step form: it
// moves the oldest event to *m and reports got, or, on a simulated proc
// with the queue empty, registers p's wake for the next Put, which stores
// its event in *m. On the live backend it blocks while the queue is empty.
// ok=false means the queue was shut down and the event loop should exit
// (never on the simulated backend, whose daemons are torn down by the
// simulator).
type commQueue interface {
	Put(m commMsg)
	GetStep(p transport.Proc, m *commMsg) (got, ok bool)
}

// simRT is the simulated substrate: a thin 1:1 veneer over sim.Sim.
type simRT struct {
	s *sim.Sim
}

// stackfulRT is simRT hosting every step machine on a stackful proc
// (Job.stackful).
type stackfulRT struct{ simRT }

func (r stackfulRT) SpawnStep(prefix string, id int, s stepper, daemon, _ bool) {
	r.simRT.SpawnStep(prefix, id, s, daemon, false)
}

func (r simRT) Now() time.Duration { return r.s.Now() }

func (r simRT) NewEventID(prefix string, id int) completion {
	return (*simEvent)(r.s.NewEventID(prefix, id))
}

func (r simRT) EventIn(ev *sim.Event, prefix string, id int) completion {
	r.s.InitEventID(ev, prefix, id)
	return (*simEvent)(ev)
}

// SpawnKernel hosts the kernel as the proc's argument: no closure.
func (r simRT) SpawnKernel(c *CPUCtx) { r.s.SpawnID("cpu-kern", c.rank, kernelArg, c) }

// kernelArg is the body of a CPU-kernel proc, running the kernel it carries.
func kernelArg(p *sim.Proc) { p.Arg().(*CPUCtx).run(p) }

// SpawnStep hosts s as the proc's argument — so a machine that holds a
// posted receive is told when the proc is killed (sim.Dropper) — and
// allocates no closure.
func (r simRT) SpawnStep(prefix string, id int, s stepper, daemon, stackless bool) {
	switch {
	case stackless && daemon:
		r.s.SpawnStepDaemon(prefix, id, stepArg, s)
	case stackless:
		r.s.SpawnStep(prefix, id, stepArg, s)
	case daemon:
		r.s.SpawnDaemonID(prefix, id, driveArg, s)
	default:
		r.s.SpawnID(prefix, id, driveArg, s)
	}
}

// stepArg is the step of a stackless proc hosting the stepper it carries.
func stepArg(p *sim.Proc) { p.Arg().(stepper).step(p) }

// driveArg is the body of a stackful proc hosting the stepper it carries:
// each form's wake is awaited in place.
func driveArg(p *sim.Proc) {
	s := p.Arg().(stepper)
	for !s.step(p) {
		p.Await()
	}
}

func (r simRT) NewQueue(prefix string, id int) commQueue {
	return &simQueue{q: sim.NewQueueID[commMsg](r.s, prefix, id)}
}

// After runs fn on a stackless daemon proc after d of virtual time.
func (r simRT) After(d time.Duration, fn func()) (cancel func()) {
	t := &simTimer{d: d, fn: fn}
	r.s.SpawnStepDaemon("timer", 0, timerStep, t)
	return t.cancel
}

// simTimer is one After. The canceled flag is a plain bool because the
// simulator runs exactly one proc at a time: the timer proc and any
// canceller are never concurrent.
type simTimer struct {
	d        time.Duration
	fn       func()
	canceled bool
}

func (t *simTimer) cancel() { t.canceled = true }

// timerStep is a timer proc's step: sleep d, then fire unless canceled.
func timerStep(p *sim.Proc) {
	t := p.Arg().(*simTimer)
	if !p.Woken() {
		p.SleepStep(t.d)
	} else if !t.canceled {
		t.fn()
	}
}

// simEvent adapts sim.Event to the completion interface without a per-
// request wrapper allocation (the conversion stores the same pointer).
type simEvent sim.Event

func (e *simEvent) Fire()       { (*sim.Event)(e).Fire() }
func (e *simEvent) Fired() bool { return (*sim.Event)(e).Fired() }
func (e *simEvent) Wait(p transport.Proc) {
	(*sim.Event)(e).Wait(p.(*sim.Proc))
}
func (e *simEvent) WaitStep(p transport.Proc) bool {
	return (*sim.Event)(e).WaitStep(p.(*sim.Proc))
}

// simQueue adapts sim.Queue to the commQueue interface.
type simQueue struct {
	q *sim.Queue[commMsg]
}

func (s *simQueue) Put(m commMsg) { s.q.Put(m) }
func (s *simQueue) GetStep(p transport.Proc, m *commMsg) (bool, bool) {
	return s.q.GetStep(p.(*sim.Proc), m), true
}
