package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// What the baton-passing kernel promises beyond the schedule (which
// TestScheduleGolden pins): procs run on pooled goroutines that never
// outnumber the procs alive and never outlive the run; Inject thunks and
// Kill stay on the goroutine that called Run, whoever was passing the baton
// when they landed; a panic names the proc that raised it, whichever worker
// ran it; and a switch allocates nothing.

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 18 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// settleGoroutines waits for goroutines that have been told to exit to be
// gone, and fails if more than base are left.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the run: leak", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestGoroutinesBoundedByLiveProcs: 100 000 short-lived procs — waves of
// sleepers under a parent, each wave followed by a chain in which every
// proc spawns its successor and returns — never need more goroutines than
// the procs alive at the peak, nor more idle workers; a chain reuses one.
func TestGoroutinesBoundedByLiveProcs(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := l.last
			const waves, width, chain = 500, 100, 100
			spawned, peakProcs, peakGoroutines, peakIdle := 0, 0, 0, 0
			sample := func() {
				peakProcs = max(peakProcs, s.Unfinished())
				peakGoroutines = max(peakGoroutines, runtime.NumGoroutine()-base)
				peakIdle = max(peakIdle, len(s.idle))
			}
			var link func(left int, done *Event) func(*Proc)
			link = func(left int, done *Event) func(*Proc) {
				return func(p *Proc) {
					spawned++
					if left == 0 {
						sample()
						done.Fire()
						return
					}
					s.Spawn("link", link(left-1, done))
				}
			}
			s.Spawn("parent", func(p *Proc) {
				for w := 0; w < waves; w++ {
					wg := s.NewWaitGroup("wave", width)
					for i := 0; i < width; i++ {
						s.SpawnID("sleeper", i, func(c *Proc) {
							spawned++
							c.Sleep(time.Duration(1+i%7) * time.Nanosecond)
							sample()
							wg.Done()
						}, nil)
					}
					wg.Wait(p)
					done := s.NewEvent("chain")
					s.Spawn("link", link(chain-1, done))
					done.Wait(p)
				}
			})
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if spawned != waves*(width+chain) {
				t.Fatalf("%d procs ran, want %d", spawned, waves*(width+chain))
			}
			// One goroutine more than procs: a second shard's window runs on its own.
			if peakProcs > width+2 || peakGoroutines > peakProcs+1 || peakIdle > peakProcs {
				t.Errorf("peak %d unfinished procs, %d goroutines, %d idle workers", peakProcs, peakGoroutines, peakIdle)
			}
			if n := len(l.first.idle) + len(l.last.idle); n != 0 {
				t.Errorf("%d idle workers survived shutdown", n)
			}
			settleGoroutines(t, base)
		})
	}
}

// TestNoGoroutineOutlivesRun: however a run ends, every worker — under a
// parked proc, a daemon or a proc that never started, or idle — is gone when
// Run returns.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	populate := func(s *Sim, ticker bool) {
		q := NewQueue[int](s, "q")
		s.SpawnDaemon("parked", func(p *Proc) { q.Get(p) })
		if ticker { // a ticking daemon keeps a deadlock from being one
			s.SpawnDaemon("ticker", func(p *Proc) {
				for {
					p.Sleep(time.Microsecond)
				}
			})
		}
		for i := 0; i < 20; i++ { // these leave idle workers behind
			s.SpawnID("short", i, func(p *Proc) { p.Sleep(time.Duration(i) * time.Nanosecond) }, nil)
		}
	}
	var deadlock *DeadlockError
	var timeout *TimeoutError
	var panicked *PanicError
	ends := []struct {
		name  string
		setup func(l testLoop)
		want  any
	}{
		{"success", func(l testLoop) { populate(l.first, true) }, nil},
		{"deadlock", func(l testLoop) {
			populate(l.first, false)
			ev := l.last.NewEvent("never")
			l.last.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
		}, &deadlock},
		{"timeout", func(l testLoop) {
			populate(l.first, true)
			l.setMaxTime(time.Millisecond)
			l.last.Spawn("late", func(p *Proc) { p.Sleep(time.Hour) })
		}, &timeout},
		{"panic", func(l testLoop) {
			populate(l.first, true)
			l.last.Spawn("bad", func(p *Proc) {
				p.Sleep(time.Microsecond)
				l.last.Spawn("unstarted", func(*Proc) {})
				panic("boom")
			})
		}, &panicked},
	}
	for _, end := range ends {
		for _, l := range testLoops() {
			t.Run(end.name+"/"+l.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				end.setup(l)
				err := l.run()
				if end.want == nil {
					if err != nil {
						t.Fatal(err)
					}
				} else if !errors.As(err, end.want) {
					t.Fatalf("run ended with %v, want %T", err, end.want)
				}
				if n := len(l.first.idle) + len(l.last.idle); n != 0 {
					t.Errorf("%d idle workers survived shutdown", n)
				}
				settleGoroutines(t, base)
			})
		}
	}
}

// TestKillWhileBatonPasses: thunks injected from a foreign goroutine while
// two procs hand the baton to each other run on the goroutine that called
// Run, with no proc current, and there Kill takes a proc that never
// started, one parked on a Queue and one asleep on a timer — all three on
// workers that ran other procs before — running their defers and returning
// their workers to the pool.
func TestKillWhileBatonPasses(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := l.last
			loop := goid() // l.run is called below, on this goroutine
			for i := 0; i < 4; i++ {
				s.SpawnID("warm-up", i, func(p *Proc) { p.Sleep(time.Nanosecond) }, nil)
			}
			ping, pong := NewQueue[int](s, "ping"), NewQueue[int](s, "pong")
			inbox := NewQueue[int](s, "inbox")
			cleaned, started, stop := 0, false, false
			var parked, asleep, unstarted *Proc
			killed := make(chan struct{})
			s.Spawn("ping", func(p *Proc) {
				p.Sleep(time.Microsecond) // the warm-up procs are done: their workers are idle
				parked = s.Spawn("parked", func(v *Proc) {
					defer func() { cleaned++ }()
					inbox.Get(v)
					t.Error("parked victim got an item")
				})
				asleep = s.Spawn("asleep", func(v *Proc) {
					defer func() { cleaned++ }()
					v.Sleep(time.Hour)
					t.Error("sleeping victim woke")
				})
				p.Yield()
				started = true
				for !stop {
					ping.Put(1)
					pong.Get(p)
					p.Sleep(time.Nanosecond)
				}
				ping.Put(-1)
				if n := len(s.idle); n < 2 {
					t.Errorf("%d idle workers after two victims were unwound", n)
				}
				inbox.Put(7) // nobody is waiting any more
			})
			s.Spawn("pong", func(p *Proc) {
				for ping.Get(p) >= 0 {
					pong.Put(1)
				}
			})
			thunk := func() {
				if got := goid(); got != loop {
					t.Errorf("thunk ran on goroutine %s, Run was called on %s", got, loop)
				}
				if s.current != nil {
					t.Errorf("thunk ran with %q current", s.current.Name())
				}
				if !started {
					return
				}
				if unstarted == nil {
					unstarted = s.Spawn("unstarted", func(*Proc) { t.Error("killed before its first step, yet ran") })
					for _, v := range []*Proc{unstarted, parked, asleep} {
						s.Kill(v)
						if v.state != stateDone {
							t.Errorf("%s not done after Kill", v.Name())
						}
					}
					close(killed)
				}
			}
			// One thunk in flight at a time, so the loop is never flooded.
			ended := make(chan struct{})
			go func() {
				for {
					ran := make(chan struct{})
					if !l.first.Inject(func() { thunk(); close(ran) }) {
						return
					}
					select {
					case <-ran:
					case <-ended:
						return
					}
					select {
					case <-killed:
						l.first.Inject(func() { stop = true })
						return
					default:
					}
				}
			}()
			err := l.run()
			close(ended)
			if err != nil {
				t.Fatal(err)
			}
			<-killed
			if cleaned != 2 {
				t.Errorf("%d victims ran their defers, want 2", cleaned)
			}
			if inbox.Len() != 1 {
				t.Errorf("inbox holds %d items: a killed receiver took one", inbox.Len())
			}
			settleGoroutines(t, base)
		})
	}
}

// TestGroupKillOfLastBatonHolder: the proc that gave the baton back to the
// loop — it posted the thunk and parked — is the one the thunk kills.
func TestGroupKillOfLastBatonHolder(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			s := l.last
			cleaned, after := false, false
			var g *Group
			g = s.NewGroup(func() { t.Error("onIdle fired for a killed group") })
			s.InGroup(g, func() {
				s.Spawn("member", func(p *Proc) {
					defer func() { cleaned = true }()
					p.Sleep(time.Microsecond)
					l.first.Inject(g.Kill)
					p.Sleep(time.Hour)
					t.Error("member outlived its group")
				})
			})
			s.Spawn("outsider", func(p *Proc) {
				p.Sleep(time.Millisecond)
				after = true
			})
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if !cleaned || !after || l.now() != time.Millisecond {
				t.Errorf("member unwound %v, outsider finished %v, run ended at %v", cleaned, after, l.now())
			}
		})
	}
}

// TestPanicNamesItsProc: the PanicError names the proc that panicked, not
// an earlier tenant of its worker: "bad" starts on the worker "first" just
// returned on, after parking once and being resumed by a third proc.
func TestPanicNamesItsProc(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			s := l.last
			ev := s.NewEvent("go")
			s.Spawn("first", func(p *Proc) {})
			s.Spawn("bad", func(p *Proc) {
				ev.Wait(p)
				panic("boom")
			})
			s.Spawn("third", func(p *Proc) {
				p.Sleep(time.Microsecond)
				ev.Fire()
				p.Sleep(time.Hour)
			})
			var pe *PanicError
			if err := l.run(); !errors.As(err, &pe) || pe.Proc != "bad" || pe.Value != "boom" {
				t.Fatalf("run ended with %v, want a PanicError naming %q", err, "bad")
			}
		})
	}
}

// TestSwitchAllocatesNothing: in steady state a self-wake (a lone proc's
// Sleep) and a hand-off (two procs over two Queues) allocate nothing — no
// goroutine, channel, waiter or queue growth per switch.
func TestSwitchAllocatesNothing(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			s := l.last
			a, b := NewQueue[int](s, "a"), NewQueue[int](s, "b")
			var sleep, pingpong float64
			s.Spawn("ping", func(p *Proc) {
				sleep = testing.AllocsPerRun(1000, func() { p.Sleep(time.Nanosecond) })
				s.Spawn("pong", func(q *Proc) {
					for v := a.Get(q); v >= 0; v = a.Get(q) {
						b.Put(v)
					}
				})
				pingpong = testing.AllocsPerRun(1000, func() {
					a.Put(1)
					b.Get(p)
				})
				a.Put(-1)
			})
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if sleep != 0 || pingpong != 0 {
				t.Errorf("%v allocs per Sleep, %v per Queue round trip; want 0", sleep, pingpong)
			}
		})
	}
}

// TestKilledWaitersTakeNothing: a proc killed while parked on a Queue or a
// Chan leaves it as if it had never called. The next Put goes to the next
// live Get, TrySend does not report delivery to a dead receiver, and the
// value a killed sender was parked with is dropped.
func TestKilledWaitersTakeNothing(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			s := l.last
			q := NewQueue[int](s, "q")
			rdv := NewChan[int](s, "rdv", 0)
			full := NewChan[int](s, "full", 1)
			closing := NewChan[int](s, "closing", 0)
			victims := []*Proc{
				s.Spawn("queue-getter", func(p *Proc) { q.Get(p) }),
				s.Spawn("chan-receiver", func(p *Proc) { rdv.Recv(p) }),
				s.Spawn("chan-sender", func(p *Proc) {
					full.Send(p, 1)
					full.Send(p, 666) // parks: the buffer is full
				}),
				s.Spawn("close-receiver", func(p *Proc) { closing.Recv(p) }),
			}
			var got, fromFull []int
			s.Spawn("survivor", func(p *Proc) {
				p.Sleep(time.Microsecond)
				l.first.Inject(func() {
					for _, v := range victims {
						s.Kill(v)
					}
				})
				p.Sleep(time.Millisecond) // the victims are dead by now, at every loop
				if rdv.TrySend(1) {
					t.Error("TrySend reported delivery to a killed receiver")
				}
				closing.Close()
				q.Put(42)
				got = append(got, q.Get(p))
				for full.Len() > 0 {
					v, _ := full.Recv(p)
					fromFull = append(fromFull, v)
				}
				s.Spawn("late-sender", func(c *Proc) { full.Send(c, 2); full.Send(c, 3) })
				for i := 0; i < 2; i++ {
					v, _ := full.Recv(p)
					fromFull = append(fromFull, v)
				}
			})
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != 42 {
				t.Errorf("Get after a killed getter returned %v, want [42]", got)
			}
			if want := []int{1, 2, 3}; !slices.Equal(fromFull, want) {
				t.Errorf("received %v from the channel a sender was killed on, want %v", fromFull, want)
			}
		})
	}
}

// TestGoexitInProcPassesBaton: a proc whose goroutine exits under it — what
// a t.Fatal inside a proc does — counts as returned, and the run goes on
// without that worker.
func TestGoexitInProcPassesBaton(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			after := false
			l.last.Spawn("quitter", func(p *Proc) {
				p.Sleep(time.Microsecond)
				runtime.Goexit()
			})
			l.last.Spawn("other", func(p *Proc) {
				p.Sleep(time.Millisecond)
				after = true
			})
			if err := l.run(); err != nil || !after {
				t.Fatalf("run ended with %v, other finished %v", err, after)
			}
			settleGoroutines(t, base)
		})
	}
}

// pingPong spawns "pong" on s, which answers each even-indexed event of evs
// by firing the odd one after it, and returns the round the caller's proc
// plays against it: fire the next even event and wait for the answer. A
// round is two proc switches.
func pingPong(s *Sim, evs []*Event) (round func(p *Proc)) {
	s.Spawn("pong", func(p *Proc) {
		for i := 0; i+1 < len(evs); i += 2 {
			evs[i].Wait(p)
			evs[i+1].Fire()
		}
	})
	next := 0
	return func(p *Proc) {
		evs[next].Fire()
		evs[next+1].Wait(p)
		next += 2
	}
}

// switchEvents creates the events of n ping-pong rounds.
func switchEvents(s *Sim, rounds int) []*Event {
	evs := make([]*Event, 2*rounds)
	for i := range evs {
		evs[i] = s.NewEvent("switch")
	}
	return evs
}

// BenchmarkProcSwitch: two procs ping-ponging Events under Sim.Run; each
// switch is a yield to the loop goroutine and the resume of the other
// proc's worker. Reports ns per switch.
func BenchmarkProcSwitch(b *testing.B) {
	s := New()
	round := pingPong(s, switchEvents(s, b.N))
	s.Spawn("ping", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(p)
		}
		b.StopTimer()
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/switch")
}

// TestProcSwitchAllocatesNothing: once both procs of an Event ping-pong
// are on their workers, a switch allocates nothing, at every loop.
func TestProcSwitchAllocatesNothing(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			const runs = 1000
			s := l.last
			round := pingPong(s, switchEvents(s, runs+1)) // AllocsPerRun warms up with one more
			allocs := -1.0
			s.Spawn("ping", func(p *Proc) {
				allocs = testing.AllocsPerRun(runs, func() { round(p) })
			})
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%v allocs per ping-pong round, want 0", allocs)
			}
		})
	}
}

// TestKillLeavesNoGoroutine: on every shard, a thunk kills a parked proc
// and a group whose members are asleep mid-run; once Run returns, the
// goroutine count is back at its base, on one shard and on four (where
// windows run on goroutines of their own and resume the workers).
func TestKillLeavesNoGoroutine(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			sc := NewSharded(shards)
			sc.SetLookahead(time.Microsecond)
			var victims []*Proc
			for i := 0; i < shards; i++ {
				s := sc.Shard(i).Sim()
				g := s.NewGroup(func() { t.Error("onIdle fired for a killed group") })
				s.InGroup(g, func() {
					for j := 0; j < 3; j++ {
						victims = append(victims, s.SpawnID("member", j, func(p *Proc) { p.Sleep(time.Hour) }, nil))
					}
				})
				never := s.NewEvent("never")
				parked := s.Spawn("parked", func(p *Proc) { never.Wait(p) })
				victims = append(victims, parked)
				s.Spawn("killer", func(p *Proc) {
					p.Sleep(time.Duration(i+1) * time.Microsecond)
					s.Inject(func() {
						s.Kill(parked)
						g.Kill()
					})
					p.Sleep(time.Millisecond)
				})
			}
			if err := sc.Run(); err != nil {
				t.Fatal(err)
			}
			for _, v := range victims {
				if v.state != stateDone {
					t.Errorf("%s not done after its kill", v.Name())
				}
			}
			settleGoroutines(t, base)
		})
	}
}
