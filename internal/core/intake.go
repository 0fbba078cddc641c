package core

import "sync/atomic"

// intake is layer 1 of the progress engine: it normalizes every event
// source — CPU-kernel requests, GPU-monitor requests and inbound wire
// messages — into the single FIFO stream the comm thread drains, and it
// observes the stream (arrival counts by class, queue-depth high-water
// mark) for Report.Nodes.
//
// The counters are atomics because on the live backend producers are
// concurrent goroutines; on the simulated backend exactly one proc runs
// at a time and the atomics cost nothing observable (they are host-side
// only, never virtual time).
type intake struct {
	q commQueue

	localPosts atomic.Int64 // CPU-ctx and GPU-monitor requests
	wirePosts  atomic.Int64 // inbound wire messages
	inflight   atomic.Int64 // posted but not yet taken by the comm thread
	peakDepth  atomic.Int64 // high-water mark of inflight
}

func newIntake(q commQueue) *intake { return &intake{q: q} }

// reset empties a recycled engine's stream for its next tenant, as node n:
// the queue's events and the dead comm thread's wait are dropped, and the
// counters start again.
func (in *intake) reset(n int) {
	in.q.(*simQueue).q.Reset("commq", n)
	*in = intake{q: in.q}
}

// postRequest funnels one local request (CPU kernel or GPU monitor) into
// the stream.
func (in *intake) postRequest(req *request) {
	in.localPosts.Add(1)
	in.notePeak(in.inflight.Add(1))
	in.q.Put(commMsg{req: req})
}

// postInbound funnels one inbound wire message into the stream.
func (in *intake) postInbound(ib *inbound) {
	in.wirePosts.Add(1)
	in.notePeak(in.inflight.Add(1))
	in.q.Put(commMsg{in: ib})
}

// took counts an event the comm thread has taken off the stream
// (commQueue.GetStep), at once or at the wake the step registered.
func (in *intake) took() { in.inflight.Add(-1) }

// depth reports the number of posted-but-unhandled events. It is counted
// at the intake, not with Queue.Len: a queue may hand an event straight
// to a parked comm thread without it ever sitting in the backlog.
func (in *intake) depth() int { return int(in.inflight.Load()) }

// notePeak records the depth high-water mark (monotonic max).
func (in *intake) notePeak(d int64) {
	for {
		cur := in.peakDepth.Load()
		if d <= cur || in.peakDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// close shuts the stream down on backends whose queues support it (the
// live backend); the simulated queue is torn down with the simulator.
func (in *intake) close() {
	if c, ok := in.q.(interface{ close() }); ok {
		c.close()
	}
}
