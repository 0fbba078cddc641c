package sim

import (
	"testing"
	"time"
)

// TestStaleHandleCannotReachARecycledProc: a stackless proc that ends at a
// natural end is recycled — the next spawn takes its slot — but one that is
// killed is not, so the handle its step saw stays the handle of a done
// proc. Here a victim is killed with a wake still pending, later procs
// reuse every slot that comes free, and the old handle reaches none of
// them: none is the victim, Kill through the handle takes nobody, and the
// victim's stale timer, which fires after them, wakes nobody. Throughout,
// the procs' free-list count of objects held is the count of unfinished
// procs.
func TestStaleHandleCannotReachARecycledProc(t *testing.T) {
	const d, shorts = time.Microsecond, 64
	s := New()
	g := s.NewGroup(func() {})
	var victim *Proc
	s.InGroup(g, func() {
		s.SpawnStepDaemon("victim", 0, func(p *Proc) {
			if p.Woken() {
				t.Error("the killed victim took another step")
			}
			victim = p
			p.SleepStep(d) // outlives the kill, on the timer queue
		}, nil)
	})
	held := func(when string) {
		if r, n := s.Stats().Recycled["proc"], s.Unfinished(); r.Held() != uint64(n) {
			t.Errorf("%s: %d procs held by the free-list count, %d unfinished", when, r.Held(), n)
		}
	}
	seen := map[*Proc]bool{}
	reused := 0
	s.Spawn("driver", func(p *Proc) {
		p.Yield() // the victim takes its first step
		s.Inject(g.Kill)
		p.Yield() // the thunk runs here
		if victim.state != stateDone {
			t.Fatal("the victim survived its group's kill")
		}
		held("after the kill")
		for i := 0; i < shorts; i++ {
			s.SpawnStep("short", i, func(h *Proc) {
				if h == victim {
					t.Errorf("short:%d was given the killed victim's slot", i)
				}
				if seen[h] {
					reused++
				}
				seen[h] = true
			}, nil)
			p.Yield() // the short proc takes its one step and ends
			held("after a short proc")
		}
		unfinished := s.Unfinished()
		s.Inject(func() { s.Kill(victim) }) // the stale handle
		p.Yield()
		if s.Unfinished() != unfinished {
			t.Errorf("Kill through the stale handle took a proc: %d unfinished, want %d", s.Unfinished(), unfinished)
		}
		p.Sleep(2 * d) // past the victim's stale timer
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reused < shorts-1 {
		t.Errorf("%d of %d short procs reused a slot: procs are not recycled, and the test proves nothing", reused, shorts)
	}
	if r := s.Stats().Recycled["proc"]; r.Held() != 0 || s.Unfinished() != 0 {
		t.Errorf("after the run: %d procs held, %d unfinished", r.Held(), s.Unfinished())
	}
}

// TestFreeList: a list hands out cleared objects, its own spare ones last
// in first out before new ones, keeps at most its cap, and counts every
// get, put and fresh allocation; the zero list and a nil one recycle
// nothing.
func TestFreeList(t *testing.T) {
	type obj struct{ v int }
	s := New()
	var l FreeList[obj]
	l.Init(s, "obj", 2)
	a, b, c := l.Get(), l.Get(), l.Get()
	a.v, b.v, c.v = 1, 2, 3
	l.Put(a)
	l.Put(b)
	l.Put(c) // over the cap: counted, not kept
	if x := l.Get(); x != b || x.v != 0 {
		t.Errorf("Get returned %p (v=%d), want b (%p) cleared", x, x.v, b)
	}
	l.Drop()
	if r := s.Stats().Recycled["obj"]; r != (Recycled{Gets: 4, Puts: 4, Fresh: 3}) || r.Held() != 0 {
		t.Errorf("counts %+v, want 4 gets, 4 puts, 3 fresh", r)
	}
	var zero FreeList[obj]
	x := zero.Get()
	zero.Put(x)
	if zero.Get() == x {
		t.Error("the zero list recycled an object")
	}
	var none *FreeList[obj]
	x = none.Get()
	none.Put(x)
	none.Drop()
	if none.Get() == x {
		t.Error("the nil list recycled an object")
	}
}
