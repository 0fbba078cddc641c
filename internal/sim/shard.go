package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sharded runs several Sims (one per Shard) in parallel under conservative
// lookahead synchronization, the classic parallel-discrete-event recipe
// (Chandy/Misra/Bryant): all shards share a window [W, W+L) where W is the
// earliest pending event anywhere and L is the lookahead — the minimum
// latency of any cross-shard interaction. Within a window every shard with
// work advances independently; at the window edge all shards barrier and
// exchange the cross-shard events generated inside it. A Sharded of one
// shard is the same loop with nobody to wait for at the barrier, so its
// procs open the next window themselves (nextWindowInline) and come back to
// the coordinator only for what a barrier may do and a proc may not.
//
// Correctness requires that every interaction between procs on different
// shards is posted through PostArrival with a delivery time at least L past
// the time the posting proc observed, which holds by construction when L is
// the minimum cross-shard wire latency of the modeled fabric.
//
// Determinism across shard counts (Shards 1 must be bit-identical to Shards
// N) comes from two rules:
//
//  1. Arrivals are totally ordered by (virtual time, source id, per-source
//     sequence) — shard-count-invariant keys, never by shard id or posting
//     order, which both change with the shard count.
//  2. At equal virtual time a Sim delivers arrivals before firing local
//     timers, uniformly at every shard count.
//
// Per-node event order is then invariant by induction: a node's procs only
// interact with other nodes through timestamped arrivals, and the FIFO
// ready queue preserves the relative order of one node's procs regardless
// of how other nodes' procs interleave between them.
type Sharded struct {
	shards    []*Shard
	lookahead int64
	maxTime   int64
	// busy lists the shards with work inside the window being run.
	busy []*Shard
	// finished is set as Run returns nil; see Now.
	finished bool
}

// Shard is one partition of a sharded simulation: it owns a private Sim
// (event heap, clock, procs) plus the outbox used to exchange cross-shard
// events at window barriers. Arrivals routed to the shard wait in its Sim's
// arrival heap: the coordinator pushes them at barriers, the shard itself
// pushes same-shard ones mid-window, and only its window loop pops.
type Shard struct {
	coord *Sharded
	id    int
	sim   *Sim

	// outbox buffers arrivals posted during the current window; it is
	// touched only by this shard's goroutine mid-window and drained by
	// the coordinator at the barrier. The exclusive upper bound of that
	// window is sim.horizon; PostArrival uses it to detect lookahead
	// violations.
	outbox []arrival
}

// arrival is one cross-node event delivery: at time at, spawn a proc
// running fn with argument arg on simulator dst, a stackless one if
// stackless is set. src and seq form the deterministic tiebreak for
// simultaneous arrivals (see the ordering rule on Sharded).
type arrival struct {
	at        int64
	src       int
	seq       uint64
	dst       *Sim
	name      ident
	fn        func(p *Proc)
	arg       any
	stackless bool
}

// NewSharded creates a sharded simulation with n empty shards.
func NewSharded(n int) *Sharded {
	if n <= 0 {
		panic("sim: NewSharded with non-positive shard count")
	}
	sc := &Sharded{shards: make([]*Shard, n)}
	for i := range sc.shards {
		sh := &Shard{coord: sc, id: i, sim: New()}
		sh.sim.shard = sh
		sc.shards[i] = sh
	}
	return sc
}

// Shards returns the number of shards.
func (sc *Sharded) Shards() int { return len(sc.shards) }

// Shard returns shard i.
func (sc *Sharded) Shard(i int) *Shard { return sc.shards[i] }

// SetLookahead installs the conservative lookahead window width: the
// minimum virtual-time distance of any cross-shard interaction. Run panics
// if no positive lookahead was configured.
func (sc *Sharded) SetLookahead(d time.Duration) {
	if d <= 0 {
		panic("sim: non-positive lookahead")
	}
	sc.lookahead = int64(d)
}

// SetMaxTime installs a virtual-time ceiling, as Sim.SetMaxTime does for a
// plain simulation: Run fails with a TimeoutError once every pending event
// lies beyond it.
func (sc *Sharded) SetMaxTime(d time.Duration) { sc.maxTime = int64(d) }

// Now returns the simulation's clock. Once Run has returned nil it is the
// simulation's idle instant (Sim.idleAt, the latest of any shard): when the
// last non-daemon proc that no arrival started finished. Daemons racing to
// the window edge and deliveries still in flight then do not count, so the
// value is identical for every shard count, and for a simulation that was
// one group of a larger one's procs (Group). Until then — and
// after a run cut short by an error — it is the furthest any shard has
// advanced (on one shard, that shard's clock), which procs may read only
// when there is one shard, and Inject thunks (they run at a barrier)
// always.
func (sc *Sharded) Now() time.Duration {
	var now int64
	for _, sh := range sc.shards {
		if sc.finished {
			now = max(now, sh.sim.idleAt)
		} else {
			now = max(now, sh.sim.now)
		}
	}
	return time.Duration(now)
}

// Stats returns the self-counters of every shard's simulator, summed; the
// peak of pending timers is the largest of any shard's.
func (sc *Sharded) Stats() Stats {
	var st Stats
	for _, sh := range sc.shards {
		st.Add(sh.sim.Stats())
	}
	return st
}

// ID returns the shard's index within its Sharded coordinator.
func (sh *Shard) ID() int { return sh.id }

// Sim returns the shard's private simulation; all procs, queues and
// resources belonging to this shard's partition are created on it.
func (sh *Shard) Sim() *Sim { return sh.sim }

// PostArrival schedules fn to run as a fresh proc on simulator dst at
// virtual time at, with arg as its Arg; it is the one way procs of
// different nodes interact, and must be called from a proc running on s.
// src is a shard-count-invariant source identifier (a node id) and seq a
// monotonically increasing per-source counter; together with at they form
// the total delivery order, so equal-time arrivals are delivered
// identically at every shard count.
//
// dst is s itself or another shard of the same sharded simulation. A
// cross-shard at must lie at or beyond the current window's edge — i.e. at
// least the configured lookahead past the time the posting proc observed —
// or PostArrival panics, because delivering it this window on another shard
// that already advanced past it would break causality. A same-simulator
// delivery carries no such bound (two hosts under one fat-tree edge switch
// are closer than the cheapest cross-shard path) and goes straight into s's
// own arrival heap instead of the outbox; the heap's (at, src, seq) order
// makes delivery identical either way.
func (s *Sim) PostArrival(at time.Duration, dst *Sim, src int, seq uint64, prefix string, fn func(p *Proc), arg any) {
	s.post(&arrival{at: int64(at), src: src, seq: seq, dst: dst, name: ident{name: prefix, id: src}, fn: fn, arg: arg})
}

// PostStep is PostArrival for an arrival proc that is stackless, with step
// as its step (see SpawnStep).
func (s *Sim) PostStep(at time.Duration, dst *Sim, src int, seq uint64, prefix string, step func(p *Proc), arg any) {
	s.post(&arrival{at: int64(at), src: src, seq: seq, dst: dst, name: ident{name: prefix, id: src}, fn: step, arg: arg, stackless: true})
}

// post files a: in s's own arrival heap, or in its shard's outbox for the
// barrier. It refuses an arrival in the past, and a source id (a node id)
// wider than the heap's 32-bit key, in one check; a cross-shard arrival
// must also lie at or past the window's edge, which is beyond now.
func (s *Sim) post(a *arrival) {
	if a.at < s.now || a.src != int(int32(a.src)) {
		panic(fmt.Sprintf("sim: arrival at %v from source %d: before current time %v, or a source id wider than 32 bits",
			time.Duration(a.at), a.src, time.Duration(s.now)))
	}
	dst := a.dst
	if dst == s {
		s.arrivals.push(a)
		return
	}
	sh := s.shard
	if sh == nil || dst.shard == nil || dst.shard.coord != sh.coord {
		panic("sim: PostArrival to a simulator that is not a shard of the same simulation")
	}
	if a.at < s.horizon {
		panic(fmt.Sprintf("sim: arrival at %v inside current window ending %v: cross-shard latency below lookahead",
			time.Duration(a.at), time.Duration(s.horizon)))
	}
	sh.outbox = append(sh.outbox, *a)
}

// PostArrival is Sim.PostArrival from this shard's simulator to shard
// dstShard's, with no argument.
func (sh *Shard) PostArrival(at time.Duration, dstShard, src int, seq uint64, prefix string, fn func(p *Proc)) {
	if dstShard < 0 || dstShard >= len(sh.coord.shards) {
		panic(fmt.Sprintf("sim: PostArrival to unknown shard %d", dstShard))
	}
	sh.sim.PostArrival(at, sh.coord.shards[dstShard].sim, src, seq, prefix, fn, nil)
}

// runWindow executes this shard's events with virtual time strictly below
// end: Sim.pickNext with the window edge as its horizon, stopped early only
// by a failure.
func (sh *Shard) runWindow(end int64) {
	sh.sim.horizon = end
	sh.sim.drive()
}

// nextWindowInline is the barrier of a one-shard simulation, taken by the
// proc that reached the window's edge: with no other shard to wait for and
// no outbox to merge, a barrier that would neither run an Inject thunk nor
// end the run just moves the horizon. It skips the coordinator's exchange
// and nothing else — the end-of-run, deadlock and timeout tests are
// nextWindow's, made at the same edges — and it must not run thunks: they
// may Kill, and belong on the coordinator's goroutine. It reports whether
// the next window is open.
func (sh *Shard) nextWindowInline() bool {
	sc := sh.coord
	if len(sc.shards) != 1 || sh.sim.injPending.Load() != 0 {
		return false
	}
	end, _, done := sc.nextWindow()
	if !done {
		sh.sim.horizon = end
	}
	return !done
}

// Run executes all shards to completion. Each iteration merges the
// outboxes filled during the previous window into the destination shards'
// arrival heaps and runs the thunks Injected since (so they may Spawn and
// Kill, as under Sim.Run), checks for failure/termination/deadlock/timeout,
// computes the next window [W, W+lookahead) from the globally earliest
// pending event, and runs the window on every shard that has work in it.
// It returns the first failure (lowest shard index), a DeadlockError
// aggregating blocked procs across all shards, a TimeoutError if the clock
// would pass SetMaxTime, or nil once every non-daemon proc has finished and
// no arrivals remain in flight. The window in which that happens still runs
// to its edge, so daemons may tick past the instant Now reports.
func (sc *Sharded) Run() error {
	if sc.lookahead <= 0 {
		panic("sim: Sharded.Run without SetLookahead")
	}
	defer func() {
		for _, sh := range sc.shards {
			sh.sim.shutdown()
		}
	}()
	for {
		for _, sh := range sc.shards {
			for i := range sh.outbox {
				sh.outbox[i].dst.arrivals.push(&sh.outbox[i])
			}
			clear(sh.outbox)
			sh.outbox = sh.outbox[:0]
			sh.sim.drainInjected()
		}
		end, err, done := sc.nextWindow()
		if done {
			return err
		}
		sc.busy = sc.busy[:0]
		for _, sh := range sc.shards {
			if sh.sim.nextEventAt() < end {
				sc.busy = append(sc.busy, sh)
			}
		}
		sc.runBusy(end)
	}
}

// nextWindow is the barrier's decision, made with every shard at rest:
// done with the run's result (the first failure, nil once nothing is live
// or in flight, a deadlock, a timeout), or the exclusive end of the next
// window, which opens at the globally earliest pending event. Asking twice
// with nothing changed gives the same answer.
func (sc *Sharded) nextWindow() (end int64, err error, done bool) {
	live, pending, w := 0, 0, int64(never)
	for _, sh := range sc.shards {
		if sh.sim.failure != nil {
			return 0, sh.sim.failure, true
		}
		live += sh.sim.live
		pending += sh.sim.arrivals.len()
		w = min(w, sh.sim.nextEventAt())
	}
	if live == 0 && pending == 0 {
		sc.finished = true
		return 0, nil, true
	}
	if w == never {
		return 0, sc.deadlockError(), true
	}
	if sc.maxTime > 0 && w > sc.maxTime {
		return 0, &TimeoutError{Limit: time.Duration(sc.maxTime)}, true
	}
	end = w + sc.lookahead
	if sc.maxTime > 0 && end > sc.maxTime+1 {
		// Clamp so no event beyond the ceiling executes; the next
		// barrier then reports the timeout deterministically.
		end = sc.maxTime + 1
	}
	return end, nil, false
}

// runBusy runs the window ending at end on every busy shard: the last on
// the caller's goroutine, any others each on one of their own. A window
// with one busy shard — every window of a one-shard simulation, and most
// of a ping-pong's — therefore starts no goroutine and allocates nothing.
func (sc *Sharded) runBusy(end int64) {
	last := len(sc.busy) - 1
	if last == 0 {
		sc.busy[0].runWindow(end)
		return
	}
	var wg sync.WaitGroup
	wg.Add(last)
	for _, sh := range sc.busy[:last] {
		go func(sh *Shard) {
			defer wg.Done()
			sh.runWindow(end)
		}(sh)
	}
	sc.busy[last].runWindow(end)
	wg.Wait()
}

// deadlockError aggregates blocked procs across every shard into one
// diagnostic, sorted for determinism.
func (sc *Sharded) deadlockError() error {
	var blocked []string
	var at int64
	for _, sh := range sc.shards {
		blocked = sh.sim.appendBlocked(blocked)
		if sh.sim.now > at {
			at = sh.sim.now
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Time: time.Duration(at), Blocked: blocked}
}
