package core

import (
	"sync"
	"time"

	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// liveRT is the live substrate: goroutines, closable events and
// mutex-guarded queues on the wall clock. Every spawned thread is tracked
// in one of two WaitGroups; daemons are written to terminate once their
// queue or transport is closed, so runLive can wait for a fully quiescent
// engine before assembling the report.
type liveRT struct {
	proc *transport.WallProc
	// workers tracks the kernels: when it drains, the run is done. daemons
	// tracks everything else — the service threads (comm threads,
	// receivers), which are unwound by closing their queues and transports
	// afterwards, and the helpers they spawn (dcgn-tx, sendrecv joins, acks,
	// one-sided replies). A helper is counted with its spawner so that its
	// Add always finds the count above zero: a receiver can ack a frame
	// after the kernels have ended, when workers may already be in Wait.
	workers sync.WaitGroup
	daemons sync.WaitGroup
}

func newLiveRT() *liveRT {
	return &liveRT{proc: &transport.WallProc{Epoch: time.Now()}}
}

func (r *liveRT) Now() time.Duration { return r.proc.Now() }

func (r *liveRT) NewEventID(string, int) completion {
	return &liveEvent{ch: make(chan struct{})}
}

func (r *liveRT) EventIn(_ *sim.Event, prefix string, id int) completion {
	return r.NewEventID(prefix, id)
}

// SpawnKernel starts a kernel.
func (r *liveRT) SpawnKernel(c *CPUCtx) {
	r.workers.Add(1)
	go func() {
		defer r.workers.Done()
		c.run(r.proc)
	}()
}

// SpawnStep runs s on a goroutine, where every form blocks in place: one
// step is the whole machine. Every step machine on live is a daemon or a
// helper a daemon spawns, so it is counted in daemons either way. It does
// not go through Spawn, which would wrap s in a second closure per message.
func (r *liveRT) SpawnStep(_ string, _ int, s stepper, _, _ bool) {
	r.daemons.Add(1)
	go func() {
		defer r.daemons.Done()
		s.step(r.proc)
	}()
}

func (r *liveRT) NewQueue(string, int) commQueue {
	q := &liveQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// After runs fn after d of wall time; cancel stops the underlying timer
// (and is the reason this is not time.After — an un-stopped timer would
// outlive the run, the exact leak the live watchdog had).
func (r *liveRT) After(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

// liveEvent is a one-shot completion built on channel close, giving
// waiters the usual happens-before edge over the completed request's
// fields.
type liveEvent struct {
	ch   chan struct{}
	once sync.Once
}

func (e *liveEvent) Fire() { e.once.Do(func() { close(e.ch) }) }

func (e *liveEvent) Fired() bool {
	select {
	case <-e.ch:
		return true
	default:
		return false
	}
}

func (e *liveEvent) Wait(transport.Proc) { <-e.ch }

func (e *liveEvent) WaitStep(transport.Proc) bool {
	<-e.ch
	return true
}

// liveQueue is an unbounded multi-producer FIFO with shutdown: GetStep
// blocks while empty and returns ok=false once the queue is closed and
// drained.
type liveQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []commMsg
	head   int
	closed bool
}

func (q *liveQueue) Put(m commMsg) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, m)
	q.mu.Unlock()
	q.cond.Signal()
}

// GetStep blocks while the queue is empty, so it always has an event for
// *m unless the queue is closed and drained.
func (q *liveQueue) GetStep(_ transport.Proc, m *commMsg) (got, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head >= len(q.items) {
		return true, false
	}
	*m = q.items[q.head]
	q.items[q.head] = commMsg{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return true, true
}

// close shuts the queue down, waking blocked getters.
func (q *liveQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
