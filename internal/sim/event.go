package sim

import "fmt"

// Event is a one-shot broadcast signal. Procs that Wait before Fire block;
// Fire wakes all of them, and any later Wait returns immediately. The zero
// value is not usable; create Events with NewEvent.
type Event struct {
	s     *Sim
	ident ident
	fired bool
	// first is the earliest waiter, held inline because most events have
	// exactly one; waiters are the ones after it.
	first   *Proc
	waiters []*Proc
}

// NewEvent creates an unfired Event.
func (s *Sim) NewEvent(name string) *Event {
	return &Event{s: s, ident: ident{name: name, id: noID}}
}

// NewEventID creates an unfired Event with a lazily-formatted "prefix:id"
// name. Per-request completion events are created by the million; the
// label is only rendered if a deadlock report or trace needs it.
func (s *Sim) NewEventID(prefix string, id int) *Event {
	e := new(Event)
	s.InitEventID(e, prefix, id)
	return e
}

// InitEventID is NewEventID into storage the caller owns: it makes *e an
// unfired Event. An event that lives exactly as long as the request it
// completes is a field of that request, and costs no allocation of its own.
// Nothing may wait on *e when it is made again.
func (s *Sim) InitEventID(e *Event, prefix string, id int) {
	*e = Event{s: s, ident: ident{name: prefix, id: id}}
}

// Name returns the event's name.
func (e *Event) Name() string { return e.ident.String() }

func (e *Event) label() string { return e.ident.String() }

// Fired reports whether the event has been fired.
func (e *Event) Fired() bool { return e.fired }

// Fire signals the event, waking every waiting Proc. Firing an already-fired
// event is a no-op. Fire may be called from any running Proc (it does not
// block).
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	if e.first != nil {
		e.s.unblock(e.first)
	}
	for _, p := range e.waiters {
		e.s.unblock(p)
	}
	e.first, e.waiters = nil, nil
}

// Wait blocks p until the event fires. Returns immediately if it already
// fired.
func (e *Event) Wait(p *Proc) {
	if !e.WaitStep(p) {
		p.await()
	}
}

// WaitStep is Wait's non-parking form: it reports whether the event has
// fired, and registers p's wake for when it does if not.
func (e *Event) WaitStep(p *Proc) bool {
	p.checkCurrent("Event.Wait")
	if e.fired {
		return true
	}
	if e.first == nil {
		e.first = p
	} else {
		e.waiters = append(e.waiters, p)
	}
	p.block(parkEvent, e, 0)
	return false
}

// WaitGroup counts outstanding work items, like sync.WaitGroup but for
// simulated Procs.
type WaitGroup struct {
	s       *Sim
	name    string
	count   int
	waiters []*Proc
}

// NewWaitGroup creates a WaitGroup with an initial count.
func (s *Sim) NewWaitGroup(name string, count int) *WaitGroup {
	return &WaitGroup{s: s, name: name, count: count}
}

func (w *WaitGroup) label() string { return w.name }

// Add adjusts the count by delta. Panics if the count goes negative.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic(fmt.Sprintf("sim: WaitGroup %q count went negative", w.name))
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			w.s.unblock(p)
		}
		w.waiters = nil
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if !w.WaitStep(p) {
		p.await()
	}
}

// WaitStep is Wait's non-parking form: it reports whether the count is
// zero, and registers p's wake for when it reaches zero if not.
func (w *WaitGroup) WaitStep(p *Proc) bool {
	p.checkCurrent("WaitGroup.Wait")
	if w.count == 0 {
		return true
	}
	w.waiters = append(w.waiters, p)
	p.block(parkWaitGroup, w, int64(w.count))
	return false
}
