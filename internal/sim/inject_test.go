package sim

import (
	"fmt"
	"testing"
	"time"
)

// Inject and Kill: the event-boundary escape hatch external controllers
// (job cancellation, the runtime control API) use to mutate simulation
// state without racing the single-threaded kernel. They must work under
// every loop that drives a Sim: its own Run, and a Sharded coordinator's —
// of one shard, which is what a Runtime runs on, and of two.

// testLoop is one way of driving simulators to completion.
type testLoop struct {
	name string
	// first and last are the simulators of the first and the last shard: the
	// same Sim unless the loop has two.
	first, last *Sim
	run         func() error
	now         func() time.Duration
	setMaxTime  func(time.Duration)
}

func testLoops() []testLoop {
	s := New()
	loops := []testLoop{{"sim", s, s, s.Run, s.Now, s.SetMaxTime}}
	for _, shards := range []int{1, 2} {
		sc := NewSharded(shards)
		sc.SetLookahead(time.Microsecond)
		loops = append(loops, testLoop{fmt.Sprintf("sharded%d", shards),
			sc.Shard(0).Sim(), sc.Shard(shards - 1).Sim(), sc.Run, sc.Now, sc.SetMaxTime})
	}
	return loops
}

// TestInjectRunsBeforeEvents: a thunk posted before Run executes at the
// first scheduler boundary, ahead of any proc step.
func TestInjectRunsBeforeEvents(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			var order []string
			l.last.Spawn("worker", func(p *Proc) {
				order = append(order, "worker")
			})
			if !l.first.Inject(func() { order = append(order, "inject") }) {
				t.Fatal("Inject refused before Run")
			}
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if len(order) != 2 || order[0] != "inject" || order[1] != "worker" {
				t.Fatalf("execution order %v, want [inject worker]", order)
			}
		})
	}
}

// TestInjectAfterShutdown: once the simulation has shut down, Inject
// refuses the thunk instead of queueing it forever.
func TestInjectAfterShutdown(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			l.first.Spawn("noop", func(p *Proc) {})
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if l.first.Inject(func() {}) || l.last.Inject(func() {}) {
				t.Fatal("Inject accepted a thunk after shutdown")
			}
		})
	}
}

// TestKillUnwindsProc: killing a proc that never got to run still marks
// it done and adjusts the live count, so Run terminates at once instead
// of waiting out the proc's timer.
func TestKillUnwindsProc(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			var executed bool
			victim := l.last.Spawn("victim", func(p *Proc) {
				p.Sleep(time.Hour)
				executed = true
			})
			l.first.Inject(func() { l.last.Kill(victim) })
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if executed {
				t.Error("victim ran after being killed")
			}
			if l.now() != 0 {
				t.Errorf("virtual clock advanced to %v waiting on a killed proc", l.now())
			}
		})
	}
}

// TestKillAtEventBoundary: a kill injected mid-run takes effect at the
// next virtual-time event boundary — the clock stops there, not at the
// victim's distant wakeup — and the victim's defers run on the unwind.
func TestKillAtEventBoundary(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			var executed, cleaned bool
			victim := l.last.Spawn("victim", func(p *Proc) {
				defer func() { cleaned = true }()
				p.Sleep(time.Hour)
				executed = true
			})
			l.first.Spawn("watcher", func(p *Proc) {
				p.Sleep(10 * time.Millisecond)
				l.last.Inject(func() { l.last.Kill(victim) })
			})
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if executed {
				t.Error("victim survived the injected kill")
			}
			if !cleaned {
				t.Error("victim's defer did not run on kill")
			}
			if l.now() != 10*time.Millisecond {
				t.Errorf("run ended at %v, want the 10ms kill boundary", l.now())
			}
		})
	}
}

// TestKillFinishedProcIsNoOp: Kill after the proc already exited (or
// after the run) must not panic or block.
func TestKillFinishedProcIsNoOp(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			p := l.last.Spawn("quick", func(p *Proc) {})
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			l.last.Kill(p) // already done: no-op
		})
	}
}
