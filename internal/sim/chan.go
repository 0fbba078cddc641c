package sim

import "fmt"

// chanWaiter is one Proc parked on a channel operation, together with the
// value being transferred: in val, or for a stackless Queue.GetStep in *dst.
type chanWaiter[T any] struct {
	p   *Proc
	val T
	dst *T
	ok  bool // for receivers: whether a value was delivered (false = closed)
}

// popLive removes and returns the oldest waiter whose proc has not been
// killed in the queue, nil if there is none: a killed receiver takes no
// value, and a killed sender's Send never happened.
func popLive[T any](q *ring[*chanWaiter[T]]) *chanWaiter[T] {
	for q.len() > 0 {
		if w := q.pop(); w.p.state != stateDone {
			return w
		}
	}
	return nil
}

// Chan is a simulated typed channel with the semantics of a Go channel:
// capacity 0 means rendezvous, Send blocks while full, Recv blocks while
// empty, Close wakes all blocked receivers.
//
// A proc killed (Sim.Kill) while parked on the channel leaves it as if it
// had never called: a killed receiver is skipped by the next Send, and the
// value a killed sender was parked with is dropped with it — its Send did
// not complete, so no receiver ever sees the value.
type Chan[T any] struct {
	s      *Sim
	name   string
	buf    ring[T]
	cap    int
	sendq  ring[*chanWaiter[T]]
	recvq  ring[*chanWaiter[T]]
	closed bool
}

// NewChan creates a channel with the given capacity (0 = unbuffered).
func NewChan[T any](s *Sim, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{s: s, name: name, cap: capacity}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.len() }

func (c *Chan[T]) label() string { return c.name }

// Close closes the channel. Sending on a closed channel panics; receivers
// drain the buffer and then observe ok=false.
func (c *Chan[T]) Close() {
	if c.closed {
		panic(fmt.Sprintf("sim: close of closed channel %q", c.name))
	}
	c.closed = true
	for w := popLive(&c.recvq); w != nil; w = popLive(&c.recvq) {
		w.ok = false
		c.s.unblock(w.p)
	}
}

// Send delivers v, blocking p while the channel is full.
func (c *Chan[T]) Send(p *Proc, v T) {
	p.checkCurrent("Chan.Send")
	if !c.TrySend(v) {
		c.sendq.push(&chanWaiter[T]{p: p, val: v})
		p.block(parkChanSend, c, 0)
		p.await()
	}
}

// TrySend delivers v without blocking. It reports whether the value was
// accepted (handed to a waiting receiver or buffered).
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic(fmt.Sprintf("sim: send on closed channel %q", c.name))
	}
	if w := popLive(&c.recvq); w != nil {
		w.val = v
		w.ok = true
		c.s.unblock(w.p)
		return true
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// Recv receives a value, blocking p while the channel is empty. ok is false
// only if the channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	p.checkCurrent("Chan.Recv")
	if v, ok, done := c.tryRecvInternal(); done {
		return v, ok
	}
	w := &chanWaiter[T]{p: p}
	c.recvq.push(w)
	p.block(parkChanRecv, c, 0)
	p.await()
	return w.val, w.ok
}

// tryRecvInternal attempts a non-blocking receive. done=true means the
// operation completed (either a value with ok=true, or closed with
// ok=false).
func (c *Chan[T]) tryRecvInternal() (v T, ok bool, done bool) {
	if c.buf.len() > 0 {
		v = c.buf.pop()
		// A blocked sender can now buffer its value.
		if w := popLive(&c.sendq); w != nil {
			c.buf.push(w.val)
			c.s.unblock(w.p)
		}
		return v, true, true
	}
	if w := popLive(&c.sendq); w != nil { // unbuffered rendezvous
		c.s.unblock(w.p)
		return w.val, true, true
	}
	return v, false, c.closed
}

// Queue is an unbounded FIFO: Put never blocks, Get blocks while empty.
// It is the work-queue primitive the DCGN threads communicate through. A
// proc killed while parked in Get is skipped by the next Put.
type Queue[T any] struct {
	s     *Sim
	name  ident
	items ring[T]
	recvq ring[*chanWaiter[T]]
	// spare holds the waiters of Gets that have returned, for the next Get
	// that has to park. A killed proc's waiter is never among them: it may
	// still sit in recvq.
	spare []*chanWaiter[T]
}

// NewQueue creates an empty unbounded queue.
func NewQueue[T any](s *Sim, name string) *Queue[T] {
	return &Queue[T]{s: s, name: ident{name: name, id: noID}}
}

// NewQueueID is NewQueue with a lazily-formatted "prefix:id" name.
func NewQueueID[T any](s *Sim, prefix string, id int) *Queue[T] {
	return &Queue[T]{s: s, name: ident{name: prefix, id: id}}
}

// Reset empties q for a new life under the lazily-formatted name
// "prefix:id", keeping its storage: its items are dropped, and so are the
// waiters parked on it, whose procs must all have been killed — a queue
// whose consumers died with their owner, which reuses it.
func (q *Queue[T]) Reset(prefix string, id int) {
	for q.items.len() > 0 {
		q.items.pop()
	}
	for q.recvq.len() > 0 {
		w := q.recvq.pop()
		*w = chanWaiter[T]{}
		q.spare = append(q.spare, w)
	}
	q.name = ident{name: prefix, id: id}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

func (q *Queue[T]) label() string { return q.name.String() }

// Put appends v. It never blocks and may be called from any running Proc.
func (q *Queue[T]) Put(v T) {
	w := popLive(&q.recvq)
	switch {
	case w == nil:
		q.items.push(v)
	case w.dst != nil:
		*w.dst = v
		p := w.p
		w.p, w.dst = nil, nil
		q.spare = append(q.spare, w)
		q.s.unblock(p)
	default:
		w.val = v
		q.s.unblock(w.p)
	}
}

// Get removes and returns the oldest item, blocking p while empty.
func (q *Queue[T]) Get(p *Proc) T {
	p.checkCurrent("Queue.Get")
	if q.items.len() > 0 {
		return q.items.pop()
	}
	w := q.wait(p, nil)
	p.await()
	var zero T
	v := w.val
	w.p, w.val = nil, zero
	q.spare = append(q.spare, w)
	return v
}

// GetStep is Get's non-parking form: it moves the oldest item to *v and
// reports true, or, with the queue empty, registers p's wake for the next
// Put, which stores its item in *v.
func (q *Queue[T]) GetStep(p *Proc, v *T) bool {
	p.checkCurrent("Queue.Get")
	if q.items.len() > 0 {
		*v = q.items.pop()
		return true
	}
	q.wait(p, v)
	return false
}

// wait queues p for the next Put, which hands its item to dst, or to the
// waiter's val when dst is nil.
func (q *Queue[T]) wait(p *Proc, dst *T) *chanWaiter[T] {
	var w *chanWaiter[T]
	if n := len(q.spare); n > 0 {
		w, q.spare = q.spare[n-1], q.spare[:n-1]
		w.p, w.dst = p, dst
	} else {
		w = &chanWaiter[T]{p: p, dst: dst}
	}
	q.recvq.push(w)
	p.block(parkQueueGet, q, 0)
	return w
}
