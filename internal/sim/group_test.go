package sim

import (
	"errors"
	"testing"
	"time"
)

// A Group is one tenant of a shared simulation: membership is inherited
// through Spawn, the scheduler's own spawns stay outside, onIdle is a
// completion signal and never a teardown signal, and Kill takes everything
// the tenant started.

// TestGroupMembership: a proc spawned inside InGroup or by a running member
// is a member, daemon or not; an arrival proc, a daemon that was already up
// and a proc spawned after InGroup returned are not.
func TestGroupMembership(t *testing.T) {
	s := New()
	g := s.NewGroup(func() {})
	before := s.SpawnDaemon("substrate", func(p *Proc) { p.Sleep(time.Hour) })
	var child, grandchild, daemon, arrival *Proc
	s.InGroup(g, func() {
		s.Spawn("root", func(p *Proc) {
			child = s.Spawn("child", func(p *Proc) {
				grandchild = s.SpawnID("grandchild", 0, func(*Proc) {}, nil)
			})
			daemon = s.SpawnDaemon("daemon", func(p *Proc) { p.Sleep(time.Hour) })
			s.PostArrival(p.Now()+time.Microsecond, s, 0, 1, "wire", func(a *Proc) { arrival = a }, nil)
		})
	})
	after := s.Spawn("after", func(*Proc) {})
	members := func() map[string]bool {
		m := map[string]bool{}
		for _, p := range []*Proc{before, child, grandchild, daemon, arrival, after} {
			m[p.Name()] = p.group == g
		}
		return m
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"substrate": false, "child": true, "grandchild:0": true, "daemon": true, "wire:0": false, "after": false}
	for name, is := range members() {
		if is != want[name] {
			t.Errorf("%s: member = %v, want %v", name, is, want[name])
		}
	}
}

// TestGroupOnIdleFiresOnceOnLastReturn: onIdle runs at the instant the last
// non-daemon member returns, on that member, while the group's daemons and
// the rest of the simulation carry on; a helper a member daemon spawns
// afterwards does not fire it again. The Sim's own live count and idle
// instant are what they would be without the group.
func TestGroupOnIdleFiresOnceOnLastReturn(t *testing.T) {
	s := New()
	var idleAt []time.Duration
	var onProc *Proc
	g := s.NewGroup(func() {
		idleAt = append(idleAt, s.Now())
		onProc = s.current
	})
	var last *Proc
	s.InGroup(g, func() {
		s.Spawn("short", func(p *Proc) { p.Sleep(time.Millisecond) })
		last = s.Spawn("long", func(p *Proc) { p.Sleep(3 * time.Millisecond) })
		s.SpawnDaemon("daemon", func(p *Proc) {
			p.Sleep(5 * time.Millisecond)
			s.Spawn("straggler", func(*Proc) {})
			p.Sleep(time.Hour)
		})
	})
	s.Spawn("outsider", func(p *Proc) { p.Sleep(8 * time.Millisecond) })
	if g.live != 2 || s.live != 3 {
		t.Fatalf("counts after bring-up: group %d, sim %d; want 2, 3", g.live, s.live)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(idleAt) != 1 || idleAt[0] != 3*time.Millisecond {
		t.Fatalf("onIdle fired at %v, want once at 3ms", idleAt)
	}
	if onProc != last {
		t.Errorf("onIdle ran on %v, want the last member to return", onProc)
	}
	if g.idleAt != int64(3*time.Millisecond) || g.live != 0 {
		t.Errorf("group idleAt %v live %d", time.Duration(g.idleAt), g.live)
	}
	if s.live != 0 || s.idleAt != int64(8*time.Millisecond) {
		t.Errorf("sim live %d idleAt %v, want 0 and the outsider's 8ms", s.live, time.Duration(s.idleAt))
	}
}

// TestGroupOnIdleNeedsAReturn: a member that is killed, or that panics,
// does not empty the group.
func TestGroupOnIdleNeedsAReturn(t *testing.T) {
	t.Run("kill", func(t *testing.T) {
		s := New()
		fired := false
		g := s.NewGroup(func() { fired = true })
		var victim *Proc
		s.InGroup(g, func() {
			victim = s.Spawn("victim", func(p *Proc) { p.Sleep(time.Hour) })
		})
		s.Spawn("killer", func(p *Proc) {
			p.Sleep(time.Millisecond)
			s.Inject(func() { s.Kill(victim) })
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if fired || g.live != 1 {
			t.Errorf("killed member: onIdle fired = %v, group live %d; want false, 1", fired, g.live)
		}
	})
	t.Run("panic", func(t *testing.T) {
		s := New()
		fired := false
		g := s.NewGroup(func() { fired = true })
		s.InGroup(g, func() { s.Spawn("bad", func(*Proc) { panic("boom") }) })
		var pe *PanicError
		if err := s.Run(); !errors.As(err, &pe) {
			t.Fatalf("Run: %v, want the member's panic", err)
		}
		if fired {
			t.Error("onIdle fired for a member that panicked")
		}
	})
}

// TestGroupKill: Kill from an Inject thunk takes the group's parked members,
// its daemons and members not yet started, runs their defers, leaves
// outsiders alone, never fires onIdle, and finds nothing to do a second
// time. A member killed while it holds or waits for a shared Resource
// leaves the resource usable.
func TestGroupKill(t *testing.T) {
	for _, l := range testLoops() {
		t.Run(l.name, func(t *testing.T) {
			s := l.last
			fired, cleaned, ticks := false, 0, 0
			g := s.NewGroup(func() { fired = true })
			nic := s.NewResource("nic", 1)
			s.InGroup(g, func() {
				s.Spawn("holder", func(p *Proc) {
					defer func() { cleaned++ }()
					nic.Use(p, time.Hour)
				})
				s.Spawn("waiter", func(p *Proc) {
					defer func() { cleaned++ }()
					p.Sleep(time.Microsecond)
					nic.Use(p, time.Hour)
				})
				s.SpawnDaemon("monitor", func(p *Proc) {
					defer func() { cleaned++ }()
					for {
						p.Sleep(time.Millisecond)
						ticks++
						s.Spawn("block", func(b *Proc) { b.Sleep(time.Hour) })
					}
				})
			})
			var usedAt time.Duration
			s.Spawn("outsider", func(p *Proc) {
				p.Sleep(2500 * time.Microsecond)
				l.first.Inject(func() {
					if s.current != nil {
						t.Error("Inject thunk ran with a proc current")
					}
					s.InGroup(g, func() { s.Spawn("unstarted", func(*Proc) { t.Error("killed before its first step, yet ran") }) })
					g.Kill()
					g.Kill()
				})
				p.Sleep(time.Millisecond)
				nic.Use(p, time.Microsecond)
				usedAt = p.Now()
			})
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if fired {
				t.Error("Kill fired onIdle")
			}
			if cleaned != 3 || ticks != 2 {
				t.Errorf("%d defers ran, monitor ticked %d times; want 3 and 2 (dead after the 2.5ms kill)", cleaned, ticks)
			}
			if want := 3501 * time.Microsecond; usedAt != want || l.now() != want {
				t.Errorf("outsider got the resource at %v, run ended at %v; want both %v", usedAt, l.now(), want)
			}
		})
	}
}
