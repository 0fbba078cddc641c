package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// stepScript is one helper's work, written once as a step function: it
// waits for the node's resource, a sleep, the queue and an event in an
// order the script picks, logging each turn it takes.
type stepScript struct {
	ops []schedOp
	pc  int
	got int
}

// stepNode is what a script's helpers share.
type stepNode struct {
	s   *Sim
	res *Resource
	q   *Queue[int]
	evs []*Event
	log []string
}

// step runs the script from where it stopped until it registers a wake.
func (n *stepNode) step(sc *stepScript) func(p *Proc) {
	return func(p *Proc) {
		// The turn, and the schedule it sees: the timer sequence and the
		// ready queue, whose order a kernel-side wake (a Resource unit
		// granted, given back) decides without a turn of its own.
		line := fmt.Sprintf("%d %s seq=%d ready:", p.Now().Nanoseconds(), p.Name(), n.s.seq)
		for i := 0; i < n.s.ready.len(); i++ {
			r := &n.s.ready
			line += " " + r.buf[(r.head+i)&(len(r.buf)-1)].Name()
		}
		n.log = append(n.log, line)
		for ; sc.pc < len(sc.ops); sc.pc++ {
			op := sc.ops[sc.pc]
			switch op.kind % 5 {
			case 0:
				p.SleepStep(op.d)
			case 1:
				n.res.UseStep(p, op.d)
			case 2:
				n.q.Put(op.k)
				continue
			case 3:
				if n.q.GetStep(p, &sc.got) {
					continue
				}
			case 4:
				if ev := n.evs[op.k%len(n.evs)]; !ev.WaitStep(p) {
					break
				}
				continue
			}
			sc.pc++
			return
		}
	}
}

// stackful drives a step function on a stack of its own: the step, then
// Await for the wake it registered, until it registers none.
func stackful(step func(p *Proc)) func(p *Proc) {
	return func(p *Proc) {
		for step(p); p.state == stateBlocked; step(p) {
			p.Await()
		}
	}
}

// runSteps runs the same seeded helpers stackless or stackful and returns
// the turn log.
func runSteps(t *testing.T, stackless bool) []string {
	t.Helper()
	s := New()
	n := &stepNode{s: s, res: s.NewResource("res", 2), q: NewQueue[int](s, "q")}
	for i := 0; i < 4; i++ {
		n.evs = append(n.evs, s.NewEvent(fmt.Sprintf("ev%d", i)))
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 60; i++ {
		sc := &stepScript{}
		for j := 0; j < 10; j++ {
			sc.ops = append(sc.ops, schedOp{kind: rng.Intn(5), d: time.Duration(rng.Intn(4)) * 50 * time.Nanosecond, k: rng.Intn(8)})
		}
		if stackless {
			s.SpawnStep("h", i, n.step(sc), nil)
		} else {
			s.SpawnID("h", i, stackful(n.step(sc)), nil)
		}
	}
	// A stackful firer, the same in both runs: every event fires, and the
	// queue gets enough items for every Get.
	s.Spawn("firer", func(p *Proc) {
		for _, ev := range n.evs {
			p.Sleep(170 * time.Nanosecond)
			ev.Fire()
		}
		for i := 0; i < 600; i++ {
			n.q.Put(-i)
			p.Sleep(20 * time.Nanosecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return n.log
}

// TestStacklessTakesTheSameSlots: a body run as a stackless proc takes the
// turns, at the same instants and in the same order, that it takes on a
// stack of its own — the slot-for-slot contract that keeps every schedule
// bit-identical when a helper is converted.
func TestStacklessTakesTheSameSlots(t *testing.T) {
	want, got := runSteps(t, false), runSteps(t, true)
	if len(want) < 200 {
		t.Fatalf("only %d turns logged; the workload has shrunk", len(want))
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("turn %d: stackless %q, stackful %q (%d vs %d turns)", i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("stackless took %d turns, stackful %d", len(got), len(want))
	}
}

// TestStacklessKill: Sim.Kill, Group.Kill and the shutdown of a failed run
// take a stackless proc in every state it can wait in, and give back what
// it holds: a Resource unit in service, or one granted it that it has not
// run to take. A Use after the kill is not held up, a Put after it is not
// swallowed, and Unfinished counts the stackless proc until it is gone.
func TestStacklessKill(t *testing.T) {
	const d = time.Microsecond
	type world struct {
		s      *Sim
		res    *Resource
		q      *Queue[int]
		ev     *Event
		victim *Proc
	}
	states := []struct {
		name string
		// start spawns the victim, in g, and whatever puts it in its state
		// by the time it returns the trigger's instant, in units of d.
		start func(w *world, g *Group) int
		// after checks, on the trigger proc, that the kill left nothing
		// behind.
		after func(t *testing.T, w *world, p *Proc)
	}{
		{"waiting", func(w *world, g *Group) int {
			w.s.SpawnDaemon("holder", func(p *Proc) { w.res.Use(p, 2*d) })
			w.s.InGroup(g, func() { w.s.SpawnStepDaemon("victim", 0, func(p *Proc) { w.victim = p; w.res.UseStep(p, d) }, nil) })
			return 1
		}, nil},
		{"granted", func(w *world, g *Group) int {
			w.s.InGroup(g, func() { w.s.SpawnStepDaemon("victim", 0, func(p *Proc) { w.victim = p; w.res.UseStep(p, d) }, nil) })
			return 0 // the trigger's own Use grants the victim its unit
		}, nil},
		{"held", func(w *world, g *Group) int {
			w.s.InGroup(g, func() { w.s.SpawnStepDaemon("victim", 0, func(p *Proc) { w.victim = p; w.res.UseStep(p, 4*d) }, nil) })
			return 1
		}, nil},
		{"queue", func(w *world, g *Group) int {
			w.s.InGroup(g, func() {
				w.s.SpawnStepDaemon("victim", 0, func(p *Proc) {
					w.victim = p
					var v int
					if w.q.GetStep(p, &v) {
						t.Errorf("victim got %d", v)
					}
				}, nil)
			})
			return 1
		}, func(t *testing.T, w *world, p *Proc) {
			w.q.Put(7)
			if v := w.q.Get(p); v != 7 {
				t.Errorf("Get after the kill returned %d, want the 7 put after it", v)
			}
		}},
		{"event", func(w *world, g *Group) int {
			w.s.InGroup(g, func() {
				w.s.SpawnStepDaemon("victim", 0, func(p *Proc) {
					w.victim = p
					if p.Woken() {
						t.Error("killed victim took another step")
					}
					w.ev.WaitStep(p)
				}, nil)
			})
			return 1
		}, func(t *testing.T, w *world, p *Proc) { w.ev.Fire() }},
	}
	for _, st := range states {
		for _, killer := range []string{"Sim.Kill", "Group.Kill", "shutdown"} {
			t.Run(st.name+"/"+killer, func(t *testing.T) {
				s := New()
				w := &world{s: s, res: s.NewResource("nic", 1), q: NewQueue[int](s, "inbox"), ev: s.NewEvent("ev")}
				g := s.NewGroup(func() {})
				at := st.start(w, g)
				s.Spawn("trigger", func(p *Proc) {
					if at == 0 {
						w.res.Use(p, d) // the victim queued behind this Use is granted the unit
					} else {
						p.Sleep(time.Duration(at) * d)
					}
					if w.victim.state == stateDone {
						t.Fatalf("victim done before the kill")
					}
					unfinished := s.Unfinished()
					switch killer {
					case "Sim.Kill":
						s.Inject(func() { s.Kill(w.victim) })
					case "Group.Kill":
						s.Inject(g.Kill)
					case "shutdown":
						panic("end of run")
					}
					p.Yield() // the thunk runs here
					if w.victim.state != stateDone || s.Unfinished() != unfinished-1 {
						t.Fatalf("victim done %v, %d procs unfinished, want %d: the kill did not take it", w.victim.state == stateDone, s.Unfinished(), unfinished-1)
					}
					p.Sleep(4 * d) // past every hold the setup started
					start := p.Now()
					w.res.Use(p, d)
					if p.Now() != start+d {
						t.Errorf("a Use after the kill took %v, want %v: the unit was not given back", p.Now()-start, d)
					}
					if st.after != nil {
						st.after(t, w, p)
					}
				})
				err := s.Run()
				var pe *PanicError
				if killer == "shutdown" {
					if !errors.As(err, &pe) || pe.Proc != "trigger" {
						t.Fatalf("run error %v, want the trigger's panic", err)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				if w.victim.state != stateDone || s.Unfinished() != 0 {
					t.Errorf("after the run: victim done %v, %d procs unfinished", w.victim.state == stateDone, s.Unfinished())
				}
				if w.res.sem.avail != 1 || w.res.sem.waiters.len() != 0 {
					t.Errorf("resource avail %d with %d waiters after the run, want the unit back", w.res.sem.avail, w.res.sem.waiters.len())
				}
			})
		}
	}
}

// TestStepPanicNamesItsProc: a panic in a stackless step is reported as the
// stackless proc's failure, not as that of the stackful proc whose park ran
// the step, and what the step held goes back.
func TestStepPanicNamesItsProc(t *testing.T) {
	s := New()
	res := s.NewResource("nic", 1)
	s.SpawnStep("boom", 3, func(p *Proc) {
		if !p.Woken() {
			res.UseStep(p, time.Microsecond)
			return
		}
		res.UseStep(p, time.Microsecond) // holds the unit again, then fails
		panic("step failed")
	}, nil)
	s.Spawn("host", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Microsecond / 4) // the step runs inside this park
		}
	})
	var pe *PanicError
	if err := s.Run(); !errors.As(err, &pe) {
		t.Fatalf("got %v, want a PanicError", err)
	}
	if pe.Proc != "boom:3" || pe.Value != "step failed" {
		t.Errorf("PanicError{Proc: %q, Value: %v}, want boom:3's", pe.Proc, pe.Value)
	}
	if res.sem.avail != 1 {
		t.Errorf("resource avail %d, want the failed step's unit back", res.sem.avail)
	}
}

// TestDeadlockListsStacklessProcs: a deadlock report names each blocked
// stackless proc with what it waits for, as it does a stackful one.
func TestDeadlockListsStacklessProcs(t *testing.T) {
	s := New()
	res := s.NewResource("nic-tx3", 1)
	inbox := NewQueue[int](s, "inbox3")
	s.Spawn("holder", func(p *Proc) {
		res.Acquire(p)
		NewQueue[int](s, "never").Get(p)
	})
	s.SpawnStep("mpi-engine", 3, func(p *Proc) {
		var v int
		inbox.GetStep(p, &v)
	}, nil)
	s.SpawnStep("wire", 3, func(p *Proc) { res.UseStep(p, time.Microsecond) }, nil)
	var de *DeadlockError
	if err := s.Run(); !errors.As(err, &de) {
		t.Fatalf("got %v, want a DeadlockError", err)
	}
	got := strings.Join(de.Blocked, "\n")
	for _, want := range []string{`mpi-engine:3: queue get "inbox3"`, `wire:3: semaphore "nic-tx3" (want 1, avail 0)`} {
		if !strings.Contains(got, want) {
			t.Errorf("deadlock report\n%s\nlacks %q", got, want)
		}
	}
}

// TestStats: the self-counters count spawns, resumes of stackful procs and
// steps of stackless ones, by kind too, the workers started (one for each
// shard's stackful sleeper), the most timers pending at once and the procs' free-list
// traffic (every spawn a get, every finished proc a put); a Sharded sums
// its shards'.
func TestStats(t *testing.T) {
	sc := NewSharded(2)
	sc.SetLookahead(time.Microsecond)
	for i := 0; i < 2; i++ {
		s := sc.Shard(i).Sim()
		s.Spawn("sleeper:a", func(p *Proc) { p.Sleep(time.Microsecond); p.Sleep(time.Microsecond) })
		s.SpawnStep("stepper", i, func(p *Proc) {
			if !p.Woken() {
				p.SleepStep(time.Microsecond)
			}
		}, nil)
		s.SpawnStepDaemon("daemon", i, func(p *Proc) { p.SleepStep(time.Hour) }, nil)
	}
	if err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	want := Stats{Spawns: 6, Resumes: 6, Steps: 6, Workers: 2, PeakTimers: 3, Kinds: map[string]KindStats{
		"sleeper": {Spawns: 2, Resumes: 6}, "stepper": {Spawns: 2, Steps: 4}, "daemon": {Spawns: 2, Steps: 2}},
		Recycled: map[string]Recycled{"proc": {Gets: 6, Puts: 6, Fresh: 6}}}
	if fmt.Sprint(st) != fmt.Sprint(want) {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}
