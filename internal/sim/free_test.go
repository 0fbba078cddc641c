package sim

import (
	"fmt"
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

// TestFreeListBlocks: a dry list allocates a block of twice what it has
// made for small objects (2, 4, 8, 8…) and of what it has made for objects
// of bigObject bytes or more (2, 2, 4, 8…), never more than half the
// spares it may keep: six small objects take two allocations, six big ones
// three and sixteen big ones four (sixteen objects, not 22), and a list
// that keeps two allocates one object at a time.
func TestFreeListBlocks(t *testing.T) {
	type small struct{ v [8]byte }
	type big struct{ v [bigObject]byte }
	s := New()
	for _, c := range []struct {
		name string
		get  func()
		want float64
	}{
		{name: "6 small", want: 2, get: func() {
			var l FreeList[small]
			l.Init(s, "small", 64)
			for range 6 {
				l.Get()
			}
		}},
		{name: "6 big", want: 3, get: func() {
			var l FreeList[big]
			l.Init(s, "big", 64)
			for range 6 {
				l.Get()
			}
		}},
		{name: "16 big", want: 4, get: func() {
			var l FreeList[big]
			l.Init(s, "big", 64)
			for range 16 {
				l.Get()
			}
		}},
		{name: "3 big, cap 2", want: 3, get: func() {
			var l FreeList[big]
			l.Init(s, "big", 2)
			for range 3 {
				l.Get()
			}
		}},
	} {
		if got := testing.AllocsPerRun(1, c.get); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}

// TestFreeListKeep: Keep gives an object back as it is, for the owner to
// reset when it takes it again, within the list's cap, and counts it as
// Put does.
func TestFreeListKeep(t *testing.T) {
	type obj struct{ v int }
	s := New()
	var l FreeList[obj]
	l.Init(s, "obj", 1)
	a, b := l.Get(), l.Get()
	a.v, b.v = 1, 2
	l.Keep(a)
	l.Keep(b) // over the cap: counted, not kept
	if x := l.Get(); x != a || x.v != 1 {
		t.Errorf("Get returned %p (v=%d), want a (%p) as it was kept", x, x.v, a)
	}
	if r := s.Stats().Recycled["obj"]; r != (Recycled{Gets: 3, Puts: 2, Fresh: 2}) {
		t.Errorf("counts %+v, want 3 gets, 2 puts, 2 fresh", r)
	}
}

// TestRecycledKinds: a simulator counts every kind apart, those past the
// ones it keeps in place too, and a second list of a kind adds to the
// first's counts.
func TestRecycledKinds(t *testing.T) {
	s := New() // "proc" is its first kind
	lists := make([]FreeList[int], kindsInPlace+3)
	for i := range lists {
		lists[i].Init(s, fmt.Sprintf("k%d", i), 8)
		for range i + 1 {
			lists[i].Get()
		}
	}
	var again FreeList[int]
	again.Init(s, "k0", 8)
	again.Get()
	rec := s.Stats().Recycled
	if len(rec) != len(lists)+1 {
		t.Errorf("%d kinds counted, want %d", len(rec), len(lists)+1)
	}
	for i := range lists {
		want := uint64(i + 1)
		if i == 0 {
			want++
		}
		if r := rec[fmt.Sprintf("k%d", i)]; r.Gets != want || r.Fresh != want {
			t.Errorf("k%d: %+v, want %d handed out, all fresh", i, r, want)
		}
	}
}

// TestQueueReset: a queue is reset for a new life — the waiter of a
// consumer killed parked on it and its items gone, its name the new one —
// and serves a new consumer as a new queue would, on the waiter the dead
// one left.
func TestQueueReset(t *testing.T) {
	s := New()
	q := NewQueueID[int](s, "q", 0)
	g := s.NewGroup(func() {})
	s.InGroup(g, func() {
		s.SpawnStepDaemon("dead", 0, func(p *Proc) {
			var v int
			q.GetStep(p, &v)
		}, nil)
	})
	var got []int
	s.Spawn("driver", func(p *Proc) {
		p.Yield() // the dead consumer parks on the queue
		s.Inject(g.Kill)
		p.Yield()
		q.Reset("q", 1)
		if q.recvq.len() != 0 || len(q.spare) != 1 || q.label() != "q:1" {
			t.Errorf("after Reset: %d waiters, %d spare, name %q; want 0, 1, q:1", q.recvq.len(), len(q.spare), q.label())
		}
		q.Put(7) // nobody waits: it stays queued
		q.Reset("q", 2)
		if q.Len() != 0 {
			t.Errorf("after Reset: %d items, want 0", q.Len())
		}
		s.Spawn("consumer", func(c *Proc) {
			got = append(got, q.Get(c), q.Get(c))
		})
		p.Yield() // the consumer parks on the spare waiter
		if len(q.spare) != 0 {
			t.Error("the new consumer did not park on the dead one's waiter")
		}
		q.Put(1)
		q.Put(2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("the consumer got %v, want [1 2]", got)
	}
}
