package core

import (
	"sync"
	"time"

	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// liveRT is the live substrate: goroutines, closable events and
// mutex-guarded queues on the wall clock. Every spawned thread — workers
// and daemons alike — is tracked in one WaitGroup; daemons are written to
// terminate once their queue or transport is closed, so runLive can wait
// for a fully quiescent engine before assembling the report.
type liveRT struct {
	proc *transport.WallProc
	// workers tracks application-driven threads (kernels and the helpers
	// their requests spawn): when it drains, the run is done. daemons
	// tracks service threads (comm threads, receivers, trace collectors),
	// which are unwound by closing their queues and transports afterwards.
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

func (r *liveRT) go1(wg *sync.WaitGroup, fn func(transport.Proc)) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn(r.proc)
	}()
}

func (r *liveRT) Spawn(_ string, fn func(transport.Proc)) { r.go1(&r.workers, fn) }
func (r *liveRT) SpawnDaemonID(_ string, _ int, fn func(transport.Proc)) {
	r.go1(&r.daemons, fn)
}

// SpawnStep runs s on a goroutine, where every form blocks in place: one
// step is the whole machine. It starts the goroutine itself rather than
// through go1, which would wrap s in a second closure per message.
func (r *liveRT) SpawnStep(_ string, _ int, s stepper, daemon, _ bool) {
	wg := &r.workers
	if daemon {
		wg = &r.daemons
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.step(r.proc)
	}()
}

func (r *liveRT) NewQueue(string) commQueue {
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

// liveQueue is an unbounded multi-producer FIFO with shutdown: Get blocks
// while empty and returns ok=false once the queue is closed and drained.
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

func (q *liveQueue) Get(transport.Proc) (commMsg, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head >= len(q.items) {
		return commMsg{}, false
	}
	m := q.items[q.head]
	q.items[q.head] = commMsg{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return m, true
}

// close shuts the queue down, waking blocked getters.
func (q *liveQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
