package sim

import "fmt"

// chanWaiter is one Proc parked on a channel operation, together with the
// value being transferred.
type chanWaiter[T any] struct {
	p   *Proc
	val T
	ok  bool // for receivers: whether a value was delivered (false = closed)
}

// Chan is a simulated typed channel with the semantics of a Go channel:
// capacity 0 means rendezvous, Send blocks while full, Recv blocks while
// empty, Close wakes all blocked receivers.
type Chan[T any] struct {
	s      *Sim
	name   string
	buf    []T
	cap    int
	sendq  []*chanWaiter[T]
	recvq  []*chanWaiter[T]
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
func (c *Chan[T]) Len() int { return len(c.buf) }

func (c *Chan[T]) label() string { return c.name }

// Close closes the channel. Sending on a closed channel panics; receivers
// drain the buffer and then observe ok=false.
func (c *Chan[T]) Close() {
	if c.closed {
		panic(fmt.Sprintf("sim: close of closed channel %q", c.name))
	}
	c.closed = true
	for _, w := range c.recvq {
		w.ok = false
		c.s.unblock(w.p)
	}
	c.recvq = nil
}

// Send delivers v, blocking p while the channel is full.
func (c *Chan[T]) Send(p *Proc, v T) {
	p.checkCurrent("Chan.Send")
	if !c.TrySend(v) {
		w := &chanWaiter[T]{p: p, val: v}
		c.sendq = append(c.sendq, w)
		p.park(parkChanSend, c, 0)
	}
}

// TrySend delivers v without blocking. It reports whether the value was
// accepted (handed to a waiting receiver or buffered).
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic(fmt.Sprintf("sim: send on closed channel %q", c.name))
	}
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		w.val = v
		w.ok = true
		c.s.unblock(w.p)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
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
	c.recvq = append(c.recvq, w)
	p.park(parkChanRecv, c, 0)
	return w.val, w.ok
}

// tryRecvInternal attempts a non-blocking receive. done=true means the
// operation completed (either a value with ok=true, or closed with
// ok=false).
func (c *Chan[T]) tryRecvInternal() (v T, ok bool, done bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		// A blocked sender can now buffer its value.
		if len(c.sendq) > 0 {
			w := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf = append(c.buf, w.val)
			c.s.unblock(w.p)
		}
		return v, true, true
	}
	if len(c.sendq) > 0 { // unbuffered rendezvous
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		c.s.unblock(w.p)
		return w.val, true, true
	}
	if c.closed {
		var zero T
		return zero, false, true
	}
	var zero T
	return zero, false, false
}

// Queue is an unbounded FIFO: Put never blocks, Get blocks while empty.
// It is the work-queue primitive the DCGN threads communicate through.
type Queue[T any] struct {
	s     *Sim
	name  string
	items []T
	recvq []*chanWaiter[T]
}

// NewQueue creates an empty unbounded queue.
func NewQueue[T any](s *Sim, name string) *Queue[T] {
	return &Queue[T]{s: s, name: name}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

func (q *Queue[T]) label() string { return q.name }

// Put appends v. It never blocks and may be called from any running Proc.
func (q *Queue[T]) Put(v T) {
	if len(q.recvq) > 0 {
		w := q.recvq[0]
		q.recvq = q.recvq[1:]
		w.val = v
		w.ok = true
		q.s.unblock(w.p)
		return
	}
	q.items = append(q.items, v)
}

// Get removes and returns the oldest item, blocking p while empty.
func (q *Queue[T]) Get(p *Proc) T {
	p.checkCurrent("Queue.Get")
	if len(q.items) > 0 {
		v := q.items[0]
		q.items = q.items[1:]
		return v
	}
	w := &chanWaiter[T]{p: p}
	q.recvq = append(q.recvq, w)
	p.park(parkQueueGet, q, 0)
	return w.val
}
