// Package sim provides a deterministic, cooperative discrete-event
// simulation kernel. All higher-level substrates in this repository (the
// data-parallel device model, the PCIe bus, the cluster fabric, the MPI
// library and DCGN itself) are built on top of it.
//
// A Sim owns a virtual clock and a set of processes (Procs). Exactly one
// goroutine — either the scheduler or a single Proc — runs at any moment, so
// simulation state needs no locking and every run is fully deterministic:
// the ready queue is FIFO and simultaneous timers fire in creation order.
//
// "The scheduler" is whichever stack holds the baton, not a goroutine of its
// own. Stackful procs run on pooled coroutines (iter.Pull) that the
// goroutine that called Run — the loop goroutine — resumes. A proc that
// parks or returns advances the schedule itself (pickNext), names the next
// proc and yields to the loop, which resumes that proc's coroutine: a yield
// and a resume per proc switch, with no trip through the Go scheduler; none
// when the next proc is the parking one (a Sleep whose timer is the
// earliest event) or has not started yet and the picker has just finished
// (it runs on the same pooled worker). The loop does more than resume only
// for what must not run on a proc's stack: Inject thunks and Kill,
// reporting a failure, a deadlock or a timeout, the end of the run, and the
// window barrier of a simulation of several shards.
//
// Procs advance virtual time only through blocking primitives (Sleep, Event,
// Chan, Semaphore, ...). Plain Go computation inside a Proc consumes zero
// virtual time; simulated cost must be charged explicitly with Sleep.
//
// There are two kinds of proc. A stackful proc (Spawn) is a function that
// runs on a worker and may block anywhere in it: user kernels, and threads
// that block deep inside library calls. A stackless proc (SpawnStep) has no
// worker: it is a step function that pickNext calls inline, on whichever
// stack holds the baton, each time the proc comes off the ready queue. A
// step registers its next wake with the non-parking form of a primitive
// (SleepStep, Resource.UseStep, Queue.GetStep, Event.WaitStep) and returns,
// and a step that registers none ends its proc. Each blocking primitive is
// its non-parking form followed by Await, so the two kinds make the same
// state changes in the same order: a stackless proc takes, slot for slot,
// the timer-queue (at, seq) and ready-queue places the same body would take
// on a stack, and converting a proc changes no schedule. What differs is
// the bill: a stackless turn costs a function call where a stackful one
// costs a coroutine switch each way and keeps a goroutine stack for the GC
// to scan. Kill and shutdown give back what a stackless proc holds (a
// Resource unit in service or granted, and what its argument holds, a
// Dropper), as a stackful proc's unwinding does, and a panic in a step is
// its own proc's failure. Stats counts both kinds' turns. A stackless proc
// that ends at a natural end — a step that registered no wake — is on no
// timer or waiter list, so its Proc goes back to the Sim's free list
// (FreeList) for the next spawn; a killed one, which a stale wake may
// still name, is left to the garbage collector.
//
// One body, two hosts: a layer above that must run one body on either kind
// writes it once, as a step function over step forms. Stackless, each form
// registers a wake and the step returns; on a stackful proc the same step
// runs in a loop that calls Await after every step that registered a wake
// — step form plus Await, the way the blocking primitives are made — so
// both hosts take the same slots. No blocking copy of such a body is kept
// beside it.
//
// There is one event loop. New builds a Sim and Run drives it; a sharded
// simulation (NewSharded, shard.go) is several Sims whose windows the
// coordinator drives, and both loops are made of the same step
// (Sim.pickNext): run the ready proc at the head of the queue, else fire the
// earliest arrival or timer below a horizon, an arrival before a timer of
// the same instant. Procs on different nodes interact only through arrivals
// (PostArrival), so a schedule does not depend on how many Sims the nodes
// are spread over.
//
// The event queue (queue.go) is shaped to that traffic. Timers wait in
// delay lanes: the timers pushed with one delay are pushed in (at, seq)
// order — each is due at now+d with a larger seq than the last, and now
// never goes back — so a FIFO per delay is sorted already, and only each
// lane's head sits in a 4-ary heap, beside the timers whose delay found
// its lane slot taken. The heap's least entry is then the least timer of
// all, and the pop order is exactly (at, seq), as it was when every timer
// sat in the heap; what changes is the heap's depth, a few dozen where a
// 1 024-node run's was ~750, because its charges come in a handful of
// fixed delays. Arrivals sit in a binary heap of (at, src, seq) keys over
// a slab of their records.
//
// A Group (NewGroup) is a set of procs that ends together — one tenant of a
// shared simulation. A proc is a member for life, by one rule: it was
// spawned inside InGroup, or by a running member. Everything else stays
// outside: arrival procs (the scheduler spawns them, whoever's frame they
// carry) and what they spawn, procs spawned from Inject thunks, and daemons
// that were up before the group existed. The group's onIdle fires once, on
// the member whose return takes the count of unreturned non-daemon members
// to zero; a member that is killed or panics never leaves that count, so a
// group cut short cannot pass for complete. Group.Kill takes every member,
// daemons and parked ones included. A Sim without groups pays a nil test or
// two per spawn and one per return.
//
// A simulation's own idle instant — what Sharded.Now reports after a clean
// run — follows the same rule with the whole simulation as the group: the
// last return of a non-daemon proc that is neither an arrival proc nor
// descended from one. Arrivals keep a run alive until they are delivered
// and what they started has ended, but a run that is idle in this sense has
// the elapsed time it would have as one tenant of a larger simulation.
//
// IMPORTANT: user code must not spawn raw goroutines that touch simulation
// state; all concurrency goes through Spawn. Every blocking primitive checks
// that it is invoked by the currently-running Proc and panics otherwise.
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// procState describes what a Proc is currently doing; used for deadlock
// diagnostics. One byte, like parkKind: with the daemon and arrival flags
// they share a word, which keeps a Proc in the 128-byte allocation class.
type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// killSentinel is the panic value that unwinds a worker's stack down to the
// proc's exec: a parked proc that Kill resumes, and a proc whose coroutine
// runtime.Goexit is taking (see exec).
type killSentinelType struct{}

var killSentinel = killSentinelType{}

// unwindStack raises the kill sentinel on the calling worker.
func unwindStack() { panic(killSentinel) }

// ident is a lazily-formatted identifier: either a fixed name or a
// (prefix, id) pair whose "prefix:id" string form is only materialized
// when something actually asks for it. Hot paths spawn procs and create
// events by the million; skipping the fmt.Sprintf for names nobody reads
// is one of the larger host-side allocation wins. name holds the prefix
// until then, and id is noID once name is the whole identifier.
type ident struct {
	name string
	id   int
}

// noID is the id of a fixed name.
const noID = math.MinInt

// NoID is the id that names a proc by its prefix alone: SpawnStep and
// SpawnStepDaemon with it name the proc prefix, as Spawn names it name.
const NoID = noID

func (d *ident) String() string {
	if d.id != noID {
		d.name += ":" + strconv.Itoa(d.id)
		d.id = noID
	}
	return d.name
}

// labeler is anything a Proc can block on that can name itself for
// deadlock diagnostics.
type labeler interface{ label() string }

// parkKind says which primitive a Proc is blocked on; together with the
// blocked-on object and one integer argument it reconstructs the
// human-readable block reason without any formatting on the hot path.
type parkKind uint8

const (
	parkNone parkKind = iota
	parkSleep
	parkEvent
	parkWaitGroup
	parkChanSend
	parkChanRecv
	parkQueueGet
	parkSemaphore
	// parkHold waits for a Resource unit that is to be held for blockArg
	// nanoseconds, parkHeld holds one until blockArg (UseStep).
	parkHold
	parkHeld
)

// Proc is a simulated process (a cooperative green thread). A Proc handle is
// also the capability through which the process calls blocking primitives.
//
// A handle a spawn returns (Spawn, SpawnID, SpawnDaemon, SpawnDaemonID)
// stays the handle of its proc for good: once the proc is done, Kill
// through it does nothing. The *Proc a stackless proc's step is handed is
// valid only during that proc's steps: SpawnStep returns no handle, and a
// stackless proc that ends at a natural end is recycled for a later spawn
// on the same Sim. A proc that is killed or panics is never recycled.
type Proc struct {
	sim   *Sim
	ident ident
	// fn is the Proc's body — a stackless proc's step — arg the value it was
	// spawned with (Arg), and w the worker a stackful proc runs on from its
	// first resume to its last; all are nil once it is done.
	fn    func(p *Proc)
	arg   any
	w     *worker
	state procState
	// daemon procs (poll loops, progress engines) do not keep the
	// simulation alive: Run finishes when every non-daemon proc is done.
	daemon bool
	// arrival procs — the ones the scheduler spawns for a PostArrival, and
	// everything they spawn — keep the simulation alive like any other, but
	// their returns do not move its idle instant (Sim.idleAt).
	arrival bool
	// stackless procs run their step on the baton holder's stack (SpawnStep).
	stackless bool
	// turns counts the times the proc has taken the baton: the resumes of a
	// stackful proc, the steps of a stackless one.
	turns uint32
	// blockKind/blockObj/blockArg describe what the Proc is blocked on, from
	// the wake it registers until it takes the baton again; the
	// human-readable reason is only formatted for deadlock reports.
	blockKind parkKind
	blockObj  labeler
	blockArg  int64
	// group is the Group the Proc belongs to, nil for most.
	group *Group
	// prev/next are the Proc's neighbours in its Sim's ring of unfinished
	// procs (Sim.procs).
	prev, next *Proc
}

// Name returns the name the Proc was spawned with.
func (p *Proc) Name() string { return p.ident.String() }

// Sim returns the simulation this Proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Arg returns the argument the Proc was spawned with by SpawnID,
// SpawnDaemonID, SpawnStep, SpawnStepDaemon or PostArrival, nil for the
// other spawns. A per-message helper is a static function that finds its
// work here, so spawning one allocates no closure.
func (p *Proc) Arg() any { return p.arg }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return time.Duration(p.sim.now) }

// Woken reports whether p has taken the baton before the turn it is in:
// false during a stackless proc's first step, true in every later one.
func (p *Proc) Woken() bool { return p.turns > 1 }

// Sim is a deterministic discrete-event scheduler.
type Sim struct {
	now   int64 // virtual time in nanoseconds since simulation start
	seq   uint64
	ready ring[*Proc]
	// timers and arrivals are the event queue (queue.go): the procs' wakes
	// in (at, seq) order, and the cross-node deliveries posted to this Sim
	// (PostArrival) in (at, src, seq) order.
	timers   timerQueue
	arrivals arrivalHeap
	// shard is this Sim's place in a sharded simulation: where arrivals for
	// other shards' Sims wait for the window barrier. Nil for a plain Sim.
	shard *Shard
	// procs is the sentinel of the ring of unfinished procs, in spawn order
	// (for shutdown and deadlock reports), linked through Proc.prev/next:
	// procs.next is the oldest, procs.prev the newest. A proc unlinks
	// itself as it finishes, so a long run of short-lived procs retains
	// memory in proportion to the procs alive, not the procs ever spawned.
	procs   Proc
	live    int // non-daemon procs not yet done
	current *Proc
	// inGroup is the group InGroup is spawning into, nil otherwise.
	inGroup *Group
	// horizon is the exclusive bound on the events pickNext may fire: the
	// SetMaxTime ceiling under Run, the window's edge under a Sharded.
	horizon int64
	// next is the proc a yielding worker names for the loop to resume, nil
	// to stop resuming. killing tells the parked proc the loop resumes that
	// Kill has come for it, and goexited tells the loop that a worker died
	// under runtime.Goexit.
	next     *Proc
	killing  bool
	goexited bool
	// idle holds the workers with no proc to run, last in first out.
	idle    []*worker
	failure error
	stopped bool

	maxTime int64

	// injected holds thunks posted by Inject from foreign goroutines;
	// the loop goroutine drains them between events. injPending mirrors
	// len(injected) so the hot loop can skip the mutex when empty.
	injMu      sync.Mutex
	injected   []func()
	injPending atomic.Int32
	injClosed  bool

	// idleAt is the simulation's idle instant: when the last non-daemon
	// proc that is not an arrival proc, nor spawned by one, finished — the
	// instant a Group reports for its members, by the same membership rule.
	// Arrivals still in flight then, and whatever they start, keep the run
	// alive (live, finished) without moving it, and so do daemons ticking on
	// to a window's edge: a run's elapsed time (Sharded.Now, the latest
	// idleAt of any shard) is the same whoever hosts it, on any shard count.
	idleAt int64

	// spawns, resumes, steps and workers are the self-counters Stats
	// reports, and kinds their split by proc kind for the procs that have
	// finished.
	spawns, resumes, steps, workers uint64
	kinds                           map[string]*KindStats

	// spare holds the procs that ended at a natural end of a stackless
	// step, for the next spawn; recycled counts the traffic of every free
	// list kept under this Sim's baton, by kind (FreeList.Init), the first
	// kinds in place and the rest, if any, one allocation each.
	spare     FreeList[Proc]
	recycled  [recycledKinds]kindCount
	nrecycled int
	more      []*kindCount
}

// kindCount is one kind's counts in Sim.recycled.
type kindCount struct {
	kind string
	Recycled
}

// recycledKinds is how many kinds of free list a Sim counts in place: the
// ten the layers above keep (procs, packets, envelopes, rendezvous sends,
// AsyncOps, dcgn-tx helpers, inbound messages, sendrecv joins, matching
// entries, node engines) and room to spare.
const recycledKinds = 12

// recycledKind returns the counts of kind, registering it on first use.
func (s *Sim) recycledKind(kind string) *Recycled {
	for i := range s.nrecycled {
		if s.recycled[i].kind == kind {
			return &s.recycled[i].Recycled
		}
	}
	for _, k := range s.more {
		if k.kind == kind {
			return &k.Recycled
		}
	}
	if s.nrecycled < recycledKinds {
		s.recycled[s.nrecycled].kind = kind
		s.nrecycled++
		return &s.recycled[s.nrecycled-1].Recycled
	}
	k := &kindCount{kind: kind}
	s.more = append(s.more, k)
	return &k.Recycled
}

// spareProcs caps a Sim's list of spare procs. It is large because the list
// has one owner and no fan-in: a proc goes back to the Sim it ran on, and a
// shard may have thousands of per-message helpers in flight at once.
const spareProcs = 1 << 14

// New creates an empty simulation with the virtual clock at zero.
func New() *Sim {
	s := &Sim{kinds: map[string]*KindStats{}}
	s.procs.prev, s.procs.next = &s.procs, &s.procs
	s.spare.Init(s, "proc", spareProcs)
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return time.Duration(s.now) }

// SetMaxTime installs a virtual-time ceiling: Run fails with a TimeoutError
// if the clock would pass it. This guards against runaway daemon poll loops
// when user procs deadlock on events no timer can fire.
func (s *Sim) SetMaxTime(d time.Duration) { s.maxTime = int64(d) }

// Spawn creates a new Proc that will execute fn. It may be called before Run
// or from a running Proc. The new Proc is appended to the ready queue and
// starts running at the current virtual time, after already-ready Procs.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.spawn(ident{name: name, id: noID}, fn, nil, false, false)
}

// SpawnID is Spawn with a lazily-formatted "prefix:id" name and an argument
// the Proc reads with Arg; per-message spawn sites use it to avoid
// formatting a label nobody may ever read and a closure per message.
func (s *Sim) SpawnID(prefix string, id int, fn func(p *Proc), arg any) *Proc {
	return s.spawn(ident{name: prefix, id: id}, fn, arg, false, false)
}

// SpawnDaemon creates a Proc that does not keep the simulation alive:
// Run completes once all non-daemon Procs are done, regardless of daemons.
// Use it for poll loops and progress engines that run "for the life of the
// application" (paper §3.2.2).
func (s *Sim) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return s.spawn(ident{name: name, id: noID}, fn, nil, true, false)
}

// SpawnDaemonID is SpawnDaemon with a lazily-formatted "prefix:id" name
// and an argument the Proc reads with Arg.
func (s *Sim) SpawnDaemonID(prefix string, id int, fn func(p *Proc), arg any) *Proc {
	return s.spawn(ident{name: prefix, id: id}, fn, arg, true, false)
}

// SpawnStep is SpawnID for a stackless proc: one with no stack of its own,
// whose step runs to completion on whichever stack holds the baton each
// time the proc takes it — when it starts, and after every wake it
// registers. A step registers its next wake with the non-parking form of a
// primitive (Proc.SleepStep, Resource.UseStep, Queue.GetStep,
// Event.WaitStep), which takes the timer-queue and ready-queue slots the
// blocking form would, and returns; a step that returns without registering
// one ends the proc. Woken tells the first step from later ones. A step
// must not call a blocking primitive.
//
// It returns no handle. A stackless proc that ends at a natural end — a
// step that registered no wake — cannot be on any timer or waiter list,
// so its Proc is recycled at once for a later spawn on the same Sim; the
// *Proc its step was handed is valid only during its steps, and a step
// must not keep it anywhere it outlives the proc. A stackless proc that is
// killed or panics is never recycled: a stale wake may still name it.
func (s *Sim) SpawnStep(prefix string, id int, step func(p *Proc), arg any) {
	s.spawn(ident{name: prefix, id: id}, step, arg, false, true)
}

// SpawnStepDaemon is SpawnStep for a daemon.
func (s *Sim) SpawnStepDaemon(prefix string, id int, step func(p *Proc), arg any) {
	s.spawn(ident{name: prefix, id: id}, step, arg, true, true)
}

// Dropper is implemented by a proc's argument that holds something outside
// the simulator's own primitives — a receive posted to a library's matching
// list. Kill, Group.Kill and shutdown call Drop on the argument of every
// proc they end, and so does a panic in a stackless proc's step: it is how
// a stackless proc, which has no stack to unwind and so no defers, gives
// such things back. A stackful proc whose argument is a Dropper is told
// too, before its defers run.
type Dropper interface{ Drop() }

func (s *Sim) spawn(name ident, fn func(p *Proc), arg any, daemon, stackless bool) *Proc {
	s.spawns++
	p := s.spare.Get()
	*p = Proc{
		sim:       s,
		ident:     name,
		fn:        fn,
		arg:       arg,
		state:     stateReady,
		daemon:    daemon,
		stackless: stackless,
	}
	p.prev, p.next = s.procs.prev, &s.procs
	p.prev.next, s.procs.prev = p, p
	p.group = s.inGroup
	if s.current != nil {
		p.arrival = s.current.arrival
		if p.group == nil {
			p.group = s.current.group
		}
	}
	if !daemon {
		s.live++
		if p.group != nil {
			p.group.live++
		}
	}
	s.ready.push(p)
	return p
}

// exec runs p's body on the calling worker and settles p's accounts when it
// returns, panics or is unwound by Kill (the only case reported as killed).
func (p *Proc) exec() (killed bool) {
	s := p.sim
	returned := false
	defer func() {
		r := recover()
		_, killed = r.(killSentinelType)
		if r != nil && !killed && s.failure == nil {
			s.failure = &PanicError{Proc: p.Name(), Value: r, Stack: string(debug.Stack())}
		}
		p.finish(false)
		if r == nil && !returned {
			// runtime.Goexit — a t.Fatal inside a proc — is taking this
			// coroutine with it, and iter.Pull would re-raise it on the loop
			// goroutine. Name the next proc and raise the kill sentinel
			// instead: the exit still goes on, and the loop recovers the
			// sentinel (resumeFrom) and carries on without this worker.
			s.next, s.goexited = s.pickNext(), true
			unwindStack()
		}
	}()
	p.fn(p)
	returned = true
	p.returned()
	return false
}

// step runs one turn of a stackless proc p on the calling stack, which holds
// the baton with p current: the kernel's part of the wake (proceed), then,
// unless that leaves p asleep, p's step. A step that returns without
// registering a wake has ended p. A panic in either is p's failure, and
// gives back what p holds, as a stackful proc's unwinding would.
func (s *Sim) step(p *Proc) {
	defer func() {
		if r := recover(); r != nil && p.state != stateDone {
			if s.failure == nil {
				s.failure = &PanicError{Proc: p.Name(), Value: r, Stack: string(debug.Stack())}
			}
			p.drop()
			p.finish(false)
		}
	}()
	if !p.proceed() {
		return
	}
	s.steps++
	p.turns++
	p.fn(p)
	if p.state == stateRunning {
		p.returned()
		p.finish(true)
	}
}

// returned settles the return of p's body in its group: the member whose
// return empties the group fires its onIdle.
func (p *Proc) returned() {
	if g := p.group; g != nil && !p.daemon {
		if g.live--; g.live == 0 && g.idleAt == never {
			g.idleAt = p.sim.now
			g.onIdle()
		}
	}
}

// Group is a set of procs that ends together; see the package comment for
// who is a member.
type Group struct {
	s      *Sim
	live   int // non-daemon members that have not returned
	onIdle func()
	// idleAt is when live first reached zero, never until then: the latch
	// that keeps a helper a member daemon spawns afterwards from firing
	// onIdle again.
	idleAt int64
}

// NewGroup creates an empty group. onIdle runs in proc context — it may
// Spawn, not Kill — on the member whose return empties the group.
func (s *Sim) NewGroup(onIdle func()) *Group {
	return &Group{s: s, onIdle: onIdle, idleAt: never}
}

// InGroup runs fn with every proc it spawns joining g, whoever calls it:
// the bring-up of a group's first members.
func (s *Sim) InGroup(g *Group, fn func()) {
	s.inGroup, g = g, s.inGroup
	fn()
	s.inGroup = g // whatever it was before
}

// Kill kills every unfinished member, in spawn order; a second call finds
// none. Like Sim.Kill it must run in scheduler context.
func (g *Group) Kill() {
	for p := g.s.procs.next; p != &g.s.procs; {
		next := p.next // a killed proc unlinks itself
		if p.group == g {
			g.s.Kill(p)
		}
		p = next
	}
}

// finish marks p done, unlinks it from the Sim's ring of unfinished procs
// and settles its place in the live count and the idle instant. It runs
// under the baton: on p's worker as its last act, or on the loop goroutine
// when a proc that never started is killed. Its links are cleared so that a
// handle someone still holds to a finished Proc does not pin its old
// neighbours, its body, its argument or its worker. With reuse — the
// natural end of a stackless proc, which nothing can name any more — p
// goes back to the Sim's spare procs; otherwise a stale timer or waiter
// entry may still point at p, and it is left to the garbage collector.
func (p *Proc) finish(reuse bool) {
	p.state = stateDone
	p.prev.next, p.next.prev = p.next, p.prev
	p.prev, p.next = nil, nil
	p.fn, p.arg, p.w, p.blockObj = nil, nil, nil, nil
	s := p.sim
	if !p.daemon {
		s.live--
		if !p.arrival {
			s.idleAt = s.now
		}
	}
	if k := s.kinds[p.kind()]; k != nil {
		*k = k.add(p.tally())
	} else {
		t := p.tally()
		s.kinds[p.kind()] = &t
	}
	if reuse {
		s.spare.Put(p)
	} else {
		s.spare.Drop()
	}
}

// kind returns p's kind: its name up to the first ':'.
func (p *Proc) kind() string {
	name, _, _ := strings.Cut(p.ident.name, ":")
	return name
}

// tally returns p's share of its kind's counts: its spawn and its turns.
func (p *Proc) tally() KindStats {
	if p.stackless {
		return KindStats{Spawns: 1, Steps: uint64(p.turns)}
	}
	return KindStats{Spawns: 1, Resumes: uint64(p.turns)}
}

// KindStats are one proc kind's share of Stats.
type KindStats struct{ Spawns, Resumes, Steps uint64 }

func (k KindStats) add(o KindStats) KindStats {
	return KindStats{k.Spawns + o.Spawns, k.Resumes + o.Resumes, k.Steps + o.Steps}
}

// Stats are a simulation's self-counters, kept in plain fields under the
// baton: read them between runs, or in scheduler context.
type Stats struct {
	// Spawns counts procs spawned, arrival procs included.
	Spawns uint64
	// Resumes counts the turns of stackful procs — every time one took the
	// baton, its start included — and Steps the turns of stackless ones.
	Resumes, Steps uint64
	// Workers counts the coroutine workers started: the goroutine stacks
	// the run has had for the garbage collector to scan.
	Workers uint64
	// PeakTimers is the most timers that have been pending at once, those
	// waiting in the timer queue's delay lanes included.
	PeakTimers int
	// Kinds splits the counts by proc kind, a proc's name up to its first
	// ':' ("wire", "mpi-engine", "cpu-kern").
	Kinds map[string]KindStats
	// Recycled counts the traffic of the free lists kept under the
	// simulation's baton (FreeList), by the kind of object: "proc" for its
	// own procs — every spawn is a Get and every finished proc a Put, so
	// Held is Unfinished — and whatever kinds the layers above keep lists
	// of.
	Recycled map[string]Recycled
}

// Stats returns the simulation's self-counters so far.
func (s *Sim) Stats() Stats {
	st := Stats{Spawns: s.spawns, Resumes: s.resumes, Steps: s.steps, Workers: s.workers, PeakTimers: s.timers.peak, Kinds: map[string]KindStats{}, Recycled: map[string]Recycled{}}
	for name, k := range s.kinds {
		st.Kinds[name] = *k
	}
	for _, k := range s.recycled[:s.nrecycled] {
		st.Recycled[k.kind] = k.Recycled
	}
	for _, k := range s.more {
		st.Recycled[k.kind] = k.Recycled
	}
	for p := s.procs.next; p != &s.procs; p = p.next {
		st.Kinds[p.kind()] = st.Kinds[p.kind()].add(p.tally())
	}
	return st
}

// Add folds o into st: counts add up, and the peak is the larger one.
func (st *Stats) Add(o Stats) {
	st.Spawns += o.Spawns
	st.Resumes += o.Resumes
	st.Steps += o.Steps
	st.Workers += o.Workers
	st.PeakTimers = max(st.PeakTimers, o.PeakTimers)
	if st.Kinds == nil {
		st.Kinds = map[string]KindStats{}
	}
	for name, k := range o.Kinds {
		st.Kinds[name] = st.Kinds[name].add(k)
	}
	if st.Recycled == nil {
		st.Recycled = map[string]Recycled{}
	}
	for kind, r := range o.Recycled {
		t := st.Recycled[kind]
		st.Recycled[kind] = Recycled{t.Gets + r.Gets, t.Puts + r.Puts, t.Fresh + r.Fresh}
	}
}

// checkCurrent panics unless p is the Proc currently scheduled to run. It
// guards against simulation state being touched from foreign goroutines.
func (p *Proc) checkCurrent(op string) {
	if p.sim.current != p {
		panic(fmt.Sprintf("sim: %s called from proc %q which is not the running proc", op, p.Name()))
	}
}

// block records that p waits for the wake it has just registered (timer
// heap, waiter list): the state Run's deadlock report reads, and what p is
// to do with the baton when that wake gives it back (proceed). The block
// reason is recorded as (kind, object, argument) and only rendered to a
// string by deadlock reports — blocking is the hottest operation in the
// simulator and must not allocate.
func (p *Proc) block(kind parkKind, obj labeler, arg int64) {
	p.state = stateBlocked
	p.blockKind = kind
	p.blockObj = obj
	p.blockArg = arg
}

// Await parks the calling stackful proc until the wake it registered with
// a step form (SleepStep, Resource.UseStep, Queue.GetStep, Event.WaitStep,
// Semaphore.AcquireStep, WaitGroup.WaitStep) has come, and returns at once
// if it registered none: each blocking primitive is its step form followed
// by Await.
func (p *Proc) Await() {
	p.checkCurrent("Await")
	p.await()
}

// await is Await for the blocking primitives, which have checked p already.
func (p *Proc) await() {
	for p.state == stateBlocked {
		p.park()
		p.proceed()
	}
}

// park gives up the baton until p's wake resumes it. The parking proc holds
// the baton, so it advances the schedule itself: if the next proc to run is
// p again there is nothing to wait for; otherwise p names the next proc and
// yields to the loop goroutine until it is resumed.
func (p *Proc) park() {
	s := p.sim
	if next := s.pickNext(); next != p {
		s.next = next
		p.w.yield(struct{}{})
		if s.killing {
			s.killing = false
			unwindStack()
		}
	}
}

// proceed does the kernel's part of the wake p has just taken the baton
// for, and reports whether p's body goes on: a Resource unit granted to p
// starts its service time, and p sleeps on; a service time that is over
// gives its unit back.
func (p *Proc) proceed() bool {
	switch p.blockKind {
	case parkHold:
		p.hold(p.blockObj.(*Semaphore), time.Duration(p.blockArg))
		return false
	case parkHeld:
		sem := p.blockObj.(*Semaphore)
		p.blockKind, p.blockObj = parkNone, nil
		sem.Release(1)
		return true
	}
	p.blockKind, p.blockObj = parkNone, nil
	return true
}

// drop gives back what p holds as it is killed, as its unwinding would
// have: a Resource unit in service, permits that Release granted it and
// that it has not run to take, and whatever its argument holds (Dropper).
func (p *Proc) drop() {
	if d, ok := p.arg.(Dropper); ok {
		d.Drop()
	}
	n := 1
	switch p.blockKind {
	case parkSemaphore:
		n = int(p.blockArg)
		fallthrough
	case parkHold:
		if p.state != stateReady {
			return
		}
		fallthrough
	case parkHeld:
		p.blockObj.(*Semaphore).Release(n)
	}
}

// blockReason renders what a blocked Proc is waiting on (deadlock reports
// only; never called on the hot path).
func (p *Proc) blockReason() string {
	switch p.blockKind {
	case parkSleep:
		return fmt.Sprintf("sleep until %v", time.Duration(p.blockArg))
	case parkEvent:
		return fmt.Sprintf("event %q", p.blockObj.label())
	case parkWaitGroup:
		return fmt.Sprintf("waitgroup %q (count %d)", p.blockObj.label(), p.blockArg)
	case parkChanSend:
		return fmt.Sprintf("chan send %q", p.blockObj.label())
	case parkChanRecv:
		return fmt.Sprintf("chan recv %q", p.blockObj.label())
	case parkQueueGet:
		return fmt.Sprintf("queue get %q", p.blockObj.label())
	case parkSemaphore, parkHold:
		want := p.blockArg
		if p.blockKind == parkHold {
			want = 1
		}
		sem := p.blockObj.(*Semaphore)
		return fmt.Sprintf("semaphore %q (want %d, avail %d)", sem.name, want, sem.avail)
	case parkHeld:
		return fmt.Sprintf("sleep until %v", time.Duration(p.blockArg))
	}
	return "blocked"
}

// unblock moves a blocked Proc to the back of the ready queue.
func (s *Sim) unblock(p *Proc) {
	if p.state == stateDone {
		return
	}
	p.state = stateReady
	s.ready.push(p)
}

// Sleep advances the Proc's virtual time by d. Sleep(0) yields to the back
// of the ready queue without advancing time; negative durations are treated
// as zero.
func (p *Proc) Sleep(d time.Duration) {
	p.SleepStep(d)
	p.await()
}

// SleepStep is Sleep's non-parking form: it registers p's wake d from now.
func (p *Proc) SleepStep(d time.Duration) {
	p.checkCurrent("Sleep")
	p.block(parkSleep, nil, p.timer(d))
}

// timer pushes p's wake d from now (a negative d is zero) onto the timer
// queue and returns its instant.
func (p *Proc) timer(d time.Duration) int64 {
	s := p.sim
	s.seq++
	d = max(d, 0)
	s.timers.push(s.now, int64(d), s.seq, p)
	return s.now + int64(d)
}

// hold starts p's service of d on a unit of sem that p has been given.
func (p *Proc) hold(sem *Semaphore, d time.Duration) {
	p.block(parkHeld, sem, p.timer(d))
}

// Yield gives other ready Procs a chance to run at the same virtual time.
func (p *Proc) Yield() { p.Sleep(0) }

// Inject posts fn to be executed by the loop goroutine — the caller of Run —
// at the next virtual-time event boundary (between proc steps, with no proc
// running; inside a Sharded, at the next window barrier).
// It is the only Sim entry point that is safe to call from a foreign
// goroutine, and exists so external controllers (job cancellation, a
// control API) can mutate simulation state without racing the
// single-threaded kernel. fn runs in scheduler context, holding the baton
// with no proc current: it may Spawn and Kill procs. Inject reports whether the thunk was
// accepted; it returns false once the simulation has shut down. An
// accepted thunk runs only if the run reaches another boundary, so
// callers must tolerate thunks posted in the run's final instants being
// dropped.
func (s *Sim) Inject(fn func()) bool {
	s.injMu.Lock()
	defer s.injMu.Unlock()
	if s.injClosed {
		return false
	}
	s.injected = append(s.injected, fn)
	s.injPending.Store(int32(len(s.injected)))
	return true
}

// drainInjected runs every pending injected thunk in post order. Called
// only on the loop goroutine, between events.
func (s *Sim) drainInjected() {
	for s.injPending.Load() > 0 {
		s.injMu.Lock()
		fns := s.injected
		s.injected = nil
		s.injPending.Store(0)
		s.injMu.Unlock()
		for _, fn := range fns {
			fn()
		}
	}
}

// Kill tears down a proc that has not finished: its goroutine unwinds via
// the kill sentinel (running its defers) and the proc is marked done and
// leaves the live count, so Run's termination condition stays correct.
// Pending timers and waiter-list entries for the proc become no-ops.
// Kill must run in scheduler context — from an Inject thunk or between
// Run calls — never from a running proc.
func (s *Sim) Kill(p *Proc) {
	if p.sim != s || p.state == stateDone {
		return
	}
	if s.current != nil {
		panic("sim: Kill called while a proc is running; use Inject")
	}
	s.unwind(p)
}

// unwind finishes a proc that is not running, on the loop goroutine: what
// it holds goes back first (drop); a stackless proc, or one that never
// started, has no frames and is simply marked done; a parked one is resumed
// to run its defers and yields back as its worker goes idle.
func (s *Sim) unwind(p *Proc) {
	p.drop()
	if p.w == nil {
		p.finish(false)
		return
	}
	s.killing = true
	p.w.resume()
}

// never is the due time of an event that does not exist.
const never = math.MaxInt64

// pendingAt returns when the earliest timer and the earliest arrival are
// due, never for an empty queue.
func (s *Sim) pendingAt() (timerAt, arrivalAt int64) {
	return s.timers.nextAt(), s.arrivals.nextAt()
}

// nextEventAt returns the earliest virtual time at which s has work (a
// ready proc, a timer, or a pending arrival), or never if idle.
func (s *Sim) nextEventAt() int64 {
	if s.ready.len() > 0 {
		return s.now
	}
	tAt, aAt := s.pendingAt()
	return min(tAt, aAt)
}

// pickNext advances the schedule to the next stackful proc that is to run,
// makes it current and returns it. Whoever holds the baton calls it — a
// proc parking or returning, or the loop goroutine — and no proc is current
// while it runs, so the procs it spawns for arrivals join no group. Each
// turn is one scheduler event, the unit both event loops are built from,
// taken only if the loop's own pre-step test (mayStep) passes: pop the head
// of the ready queue (ready procs hold the current time, so they always go
// first) — a stackless one takes its step right here, current for the
// step's length, and the turn is over — or else fire the earliest arrival
// or timer strictly below the horizon. At
// equal timestamps an arrival is delivered before a timer fires (the
// ordering rule on Sharded). It returns nil when the baton has to go back to
// the loop goroutine: the pre-step test failed, or nothing is runnable below
// the horizon and no further window can be opened from here.
func (s *Sim) pickNext() *Proc {
	s.current = nil
	for s.mayStep() {
		if s.ready.len() > 0 {
			p := s.ready.pop()
			if p.state == stateDone {
				continue
			}
			s.current = p
			p.state = stateRunning
			if p.stackless {
				s.step(p)
				s.current = nil
				continue
			}
			s.resumes++
			p.turns++
			return p
		}
		tAt, aAt := s.pendingAt()
		at := min(tAt, aAt)
		if at >= s.horizon {
			if s.shard == nil || !s.shard.nextWindowInline() {
				return nil
			}
			continue
		}
		if at < s.now {
			panic("sim: event in the past")
		}
		s.now = at
		if aAt <= tAt {
			name, fn, arg, stackless := s.arrivals.pop()
			s.spawn(name, fn, arg, false, stackless).arrival = true
		} else {
			s.unblock(s.timers.pop())
		}
	}
	return nil
}

// mayStep is the test the running loop makes before every scheduler event.
// A failure always stops the procs. Under Run so do a pending Inject thunk
// and the end of the run; inside a Sharded's window both wait for the
// barrier, so that they land at the same instant at every shard count.
func (s *Sim) mayStep() bool {
	if s.failure != nil {
		return false
	}
	return s.shard != nil || (s.injPending.Load() == 0 && !s.finished())
}

// finished reports whether a run is over: every non-daemon proc is done, no
// arrival is in flight and nothing is ready. Ready procs drain first: the
// last non-daemon Proc's exit may leave daemons woken by final deliveries —
// a sink holding a just-handed staging buffer mid-transfer. Running them to
// their next block point (same virtual instant; timers never fire once
// nothing is live or in flight) lets those handoffs finish so end-of-run
// resource accounting balances.
func (s *Sim) finished() bool {
	return s.ready.len() == 0 && s.live == 0 && s.arrivals.len() == 0
}

// drive lends the baton to the procs and returns when it comes back, with
// no proc current.
func (s *Sim) drive() {
	for p := s.pickNext(); p != nil; p = s.resumeFrom(p) {
	}
}

// resumeFrom resumes p, then each proc the worker that yields names, until
// one names none; a proc that has not started is bound to an idle worker,
// or to a new one. It returns early, with the proc still to resume, only
// when a worker dies under runtime.Goexit: the one recover per drive, not
// per switch.
func (s *Sim) resumeFrom(p *Proc) (rest *Proc) {
	defer func() {
		if s.goexited {
			s.goexited = false
			recover()
			rest = s.next
		}
	}()
	for ; p != nil; p = s.next {
		if p.w == nil {
			if n := len(s.idle); n > 0 {
				p.w, s.idle = s.idle[n-1], s.idle[:n-1]
				p.w.p = p
			} else {
				p.w = newWorker(p)
				s.workers++
			}
		}
		p.w.resume()
	}
	return nil
}

// Run executes the simulation until every Proc has finished and every
// posted arrival has been delivered. It returns an error if a Proc panicked
// or if the simulation deadlocked (some Procs are blocked but no timer or
// arrival can wake anyone up). After Run returns, all remaining Proc
// goroutines have been torn down. The simulator of a Shard is driven by
// Sharded.Run, never by this.
func (s *Sim) Run() error {
	if s.shard != nil {
		panic("sim: Run on a shard's simulator; use Sharded.Run")
	}
	defer s.shutdown()
	s.horizon = never
	if s.maxTime > 0 {
		s.horizon = s.maxTime + 1
	}
	for {
		s.drainInjected()
		if s.failure != nil {
			return s.failure
		}
		if s.finished() {
			return nil
		}
		if s.nextEventAt() >= s.horizon {
			if s.timers.len() > 0 || s.arrivals.len() > 0 {
				return &TimeoutError{Limit: time.Duration(s.maxTime)}
			}
			return s.deadlockError()
		}
		s.drive()
	}
}

// TimeoutError reports that the virtual clock exceeded the SetMaxTime limit.
type TimeoutError struct{ Limit time.Duration }

// Error describes the exceeded virtual-time limit.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("sim: virtual time exceeded limit %v", e.Limit)
}

// shutdown unwinds every proc still parked and stops every worker, so that
// no coroutine outlives the run.
func (s *Sim) shutdown() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.injMu.Lock()
	s.injClosed = true
	s.injected = nil
	s.injPending.Store(0)
	s.injMu.Unlock()
	for p := s.procs.next; p != &s.procs; {
		next := p.next // a killed proc unlinks itself
		if p.state != stateRunning {
			s.unwind(p)
		}
		p = next
	}
	for _, w := range s.idle {
		w.stop()
	}
	s.idle = nil
}

// Unfinished counts the procs spawned and not yet done, daemons included:
// what a long run retains, and what shutdown will have to kill.
func (s *Sim) Unfinished() (n int) {
	for p := s.procs.next; p != &s.procs; p = p.next {
		n++
	}
	return n
}

// appendBlocked appends a "name: reason" line for every blocked Proc.
func (s *Sim) appendBlocked(blocked []string) []string {
	for p := s.procs.next; p != &s.procs; p = p.next {
		if p.state == stateBlocked {
			blocked = append(blocked, fmt.Sprintf("%s: %s", p.Name(), p.blockReason()))
		}
	}
	return blocked
}

// deadlockError builds a diagnostic listing every blocked Proc.
func (s *Sim) deadlockError() error {
	blocked := s.appendBlocked(nil)
	sort.Strings(blocked)
	return &DeadlockError{Time: time.Duration(s.now), Blocked: blocked}
}

// DeadlockError reports that the simulation cannot make progress.
type DeadlockError struct {
	Time    time.Duration
	Blocked []string
}

// Error lists the blocked procs at the deadlock point.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d procs blocked: %v", e.Time, len(e.Blocked), e.Blocked)
}

// PanicError wraps a panic raised inside a Proc.
type PanicError struct {
	Proc  string
	Value any
	Stack string
}

// Error names the panicking proc and the panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v", e.Proc, e.Value)
}
