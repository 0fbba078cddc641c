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
	// Spawn starts a thread that keeps the run alive until it returns.
	Spawn(name string, fn func(p transport.Proc))
	// SpawnID is Spawn with a lazily-formatted "prefix:id" name.
	SpawnID(prefix string, id int, fn func(p transport.Proc))
	// SpawnDaemonID starts a thread that does not keep the run alive (the
	// comm thread, lane receivers), with a lazily-formatted "prefix:id"
	// name.
	SpawnDaemonID(prefix string, id int, fn func(p transport.Proc))
	// NewQueue creates an unbounded FIFO work queue.
	NewQueue(name string) commQueue
	// After schedules fn to run on its own thread once d of substrate time
	// has elapsed, returning a cancel function. Cancel is best-effort: it
	// guarantees fn will not run if it has not started, and is safe to call
	// after fn ran. Used for ack-retransmit timeouts (reliable.go).
	After(d time.Duration, fn func()) (cancel func())
}

// completion is a one-shot broadcast signal completing one request.
type completion interface {
	// Fire signals completion, waking all waiters; firing twice is a no-op.
	Fire()
	// Fired reports whether Fire has been called.
	Fired() bool
	// Wait blocks the calling thread until the completion fires.
	Wait(p transport.Proc)
}

// commQueue is the unbounded FIFO feeding a comm thread: Put never
// blocks, Get blocks while empty. ok=false from Get means the queue was
// shut down and the event loop should exit (never happens on the
// simulated backend, whose daemons are torn down by the simulator).
type commQueue interface {
	Put(m commMsg)
	Get(p transport.Proc) (m commMsg, ok bool)
}

// simRT is the simulated substrate: a thin 1:1 veneer over sim.Sim.
type simRT struct {
	s *sim.Sim
}

func (r simRT) Now() time.Duration { return r.s.Now() }

func (r simRT) NewEventID(prefix string, id int) completion {
	return (*simEvent)(r.s.NewEventID(prefix, id))
}

func (r simRT) Spawn(name string, fn func(transport.Proc)) {
	r.s.Spawn(name, func(p *sim.Proc) { fn(p) })
}

func (r simRT) SpawnID(prefix string, id int, fn func(transport.Proc)) {
	r.s.SpawnID(prefix, id, runArg, fn)
}

// runArg runs the body a proc was spawned with as its argument, so a
// per-message spawn wraps fn in no closure.
func runArg(p *sim.Proc) { p.Arg().(func(transport.Proc))(p) }

func (r simRT) SpawnDaemonID(prefix string, id int, fn func(transport.Proc)) {
	r.s.SpawnDaemonID(prefix, id, func(p *sim.Proc) { fn(p) })
}

func (r simRT) NewQueue(name string) commQueue {
	return &simQueue{q: sim.NewQueue[commMsg](r.s, name)}
}

// After runs fn on a daemon proc after d of virtual time. The canceled
// flag is a plain bool because the simulator runs exactly one proc at a
// time: the timer proc and any canceller are never concurrent.
func (r simRT) After(d time.Duration, fn func()) (cancel func()) {
	canceled := false
	r.s.SpawnDaemon("timer", func(p *sim.Proc) {
		p.Sleep(d)
		if !canceled {
			fn()
		}
	})
	return func() { canceled = true }
}

// simEvent adapts sim.Event to the completion interface without a per-
// request wrapper allocation (the conversion stores the same pointer).
type simEvent sim.Event

func (e *simEvent) Fire()       { (*sim.Event)(e).Fire() }
func (e *simEvent) Fired() bool { return (*sim.Event)(e).Fired() }
func (e *simEvent) Wait(p transport.Proc) {
	(*sim.Event)(e).Wait(p.(*sim.Proc))
}

// simQueue adapts sim.Queue to the commQueue interface.
type simQueue struct {
	q *sim.Queue[commMsg]
}

func (s *simQueue) Put(m commMsg) { s.q.Put(m) }
func (s *simQueue) Get(p transport.Proc) (commMsg, bool) {
	return s.q.Get(p.(*sim.Proc)), true
}
