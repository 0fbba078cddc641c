package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptySimRuns(t *testing.T) {
	s := New()
	if err := s.Run(); err != nil {
		t.Fatalf("empty sim: %v", err)
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved with no procs: %v", s.Now())
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	var at time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.Sleep(2 * time.Millisecond)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7*time.Millisecond {
		t.Fatalf("got %v, want 7ms", at)
	}
}

func TestSleepZeroYields(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if s.Now() != 0 {
		t.Fatalf("yield advanced time: %v", s.Now())
	}
}

func TestTimerOrderingDeterministic(t *testing.T) {
	run := func() []string {
		s := New()
		var order []string
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("p%d", i)
			s.Spawn(name, func(p *Proc) {
				p.Sleep(time.Millisecond) // all wake at the same instant
				order = append(order, p.Name())
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic wake order: %v vs %v", first, again)
			}
		}
	}
	// Same-deadline timers must fire in creation order.
	for i, name := range first {
		if want := fmt.Sprintf("p%d", i); name != want {
			t.Fatalf("wake order %v, want creation order", first)
		}
	}
}

func TestEventBroadcast(t *testing.T) {
	s := New()
	ev := s.NewEvent("go")
	woke := 0
	for i := 0; i < 4; i++ {
		s.Spawn("waiter", func(p *Proc) {
			ev.Wait(p)
			woke++
			if p.Now() != 3*time.Millisecond {
				t.Errorf("woke at %v, want 3ms", p.Now())
			}
		})
	}
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		ev.Fire()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4 {
		t.Fatalf("woke %d, want 4", woke)
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	s := New()
	ev := s.NewEvent("done")
	s.Spawn("p", func(p *Proc) {
		ev.Fire()
		ev.Wait(p) // must not block
		ev.Fire()  // double fire is a no-op
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	ev := s.NewEvent("never")
	s.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 {
		t.Fatalf("blocked list %v, want one entry", dl.Blocked)
	}
}

func TestPanicPropagation(t *testing.T) {
	s := New()
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("boom")
	})
	s.Spawn("innocent", func(p *Proc) { p.Sleep(time.Second) })
	err := s.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pe.Proc != "bad" || pe.Value != "boom" {
		t.Fatalf("wrong panic info: %+v", pe)
	}
}

func TestUnbufferedChanRendezvous(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "ch", 0)
	var got []int
	s.Spawn("sender", func(p *Proc) {
		for i := 0; i < 3; i++ {
			ch.Send(p, i)
		}
	})
	s.Spawn("receiver", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := ch.Recv(p)
			if !ok {
				t.Error("unexpected close")
			}
			got = append(got, v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestBufferedChanBlocksWhenFull(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "ch", 2)
	var sentAt, recvDone time.Duration
	s.Spawn("sender", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Send(p, 3) // must block until receiver drains at t=1ms
		sentAt = p.Now()
	})
	s.Spawn("receiver", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for i := 1; i <= 3; i++ {
			v, _ := ch.Recv(p)
			if v != i {
				t.Errorf("recv %d, want %d", v, i)
			}
		}
		recvDone = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt != time.Millisecond {
		t.Fatalf("third send completed at %v, want 1ms", sentAt)
	}
	if recvDone != time.Millisecond {
		t.Fatalf("receiver finished at %v", recvDone)
	}
}

func TestChanClose(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "ch", 4)
	s.Spawn("sender", func(p *Proc) {
		ch.Send(p, 42)
		ch.Close()
	})
	s.Spawn("receiver", func(p *Proc) {
		v, ok := ch.Recv(p)
		if !ok || v != 42 {
			t.Errorf("first recv = %d,%v", v, ok)
		}
		_, ok = ch.Recv(p)
		if ok {
			t.Error("recv after close+drain should report !ok")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanCloseWakesBlockedReceivers(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "ch", 0)
	s.Spawn("receiver", func(p *Proc) {
		_, ok := ch.Recv(p)
		if ok {
			t.Error("want closed")
		}
	})
	s.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q")
	var got []int
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Put(i) // never blocks
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			got = append(got, q.Get(p))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %d", i, v)
		}
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	s := New()
	q := NewQueue[string](s, "q")
	var gotAt time.Duration
	s.Spawn("consumer", func(p *Proc) {
		v := q.Get(p)
		if v != "x" {
			t.Errorf("got %q", v)
		}
		gotAt = p.Now()
	})
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		q.Put("x")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAt != 2*time.Millisecond {
		t.Fatalf("consumer woke at %v", gotAt)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("sem", 2)
	inUse, maxInUse := 0, 0
	for i := 0; i < 6; i++ {
		s.Spawn("user", func(p *Proc) {
			sem.Acquire(p, 1)
			inUse++
			if inUse > maxInUse {
				maxInUse = inUse
			}
			p.Sleep(time.Millisecond)
			inUse--
			sem.Release(1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInUse != 2 {
		t.Fatalf("max concurrent users %d, want 2", maxInUse)
	}
	if got, want := s.Now(), 3*time.Millisecond; got != want {
		t.Fatalf("six 1ms jobs at width 2 finished at %v, want %v", got, want)
	}
}

func TestSemaphoreFIFONoStarvation(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("sem", 2)
	var order []string
	s.Spawn("holder", func(p *Proc) {
		sem.Acquire(p, 2)
		p.Sleep(time.Millisecond)
		sem.Release(2)
	})
	s.Spawn("big", func(p *Proc) {
		p.Sleep(time.Microsecond)
		sem.Acquire(p, 2) // queued first
		order = append(order, "big")
		sem.Release(2)
	})
	s.Spawn("small", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		sem.Acquire(p, 1) // queued second; must NOT jump the big request
		order = append(order, "small")
		sem.Release(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("order %v, want big first (FIFO)", order)
	}
}

func TestResourceSerialization(t *testing.T) {
	s := New()
	r := s.NewResource("bus", 1)
	for i := 0; i < 3; i++ {
		s.Spawn("xfer", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Now(), 30*time.Millisecond; got != want {
		t.Fatalf("3 serialized 10ms uses finished at %v, want %v", got, want)
	}
}

func TestWaitGroup(t *testing.T) {
	s := New()
	wg := s.NewWaitGroup("wg", 3)
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		s.Spawn("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	s.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*time.Millisecond {
		t.Fatalf("waiter released at %v, want 3ms", doneAt)
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	s := New()
	total := 0
	s.Spawn("parent", func(p *Proc) {
		for i := 0; i < 5; i++ {
			s.Spawn("child", func(c *Proc) {
				c.Sleep(time.Millisecond)
				total++
			})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Fatalf("total %d", total)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	sample := func(seed int64, stream int) []time.Duration {
		var j Jitter
		j.Seed(0.1, seed, stream)
		var out []time.Duration
		for i := 0; i < 20; i++ {
			out = append(out, j.Scale(time.Millisecond))
		}
		return out
	}
	a, b, c := sample(7, 0), sample(7, 0), sample(8, 0)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
		lo, hi := time.Duration(0.9*float64(time.Millisecond)), time.Duration(1.1*float64(time.Millisecond))
		if a[i] < lo || a[i] > hi {
			t.Fatalf("jitter out of range: %v", a[i])
		}
	}
	if !same {
		t.Fatal("same seed produced different jitter")
	}
	if !diff {
		t.Fatal("different seeds produced identical jitter")
	}
	// One seed fans out into a stream per node, and a neighbouring seed's
	// streams are not the same ones shifted by a node.
	if slices.Equal(a, sample(7, 1)) || slices.Equal(sample(7, 1), c) {
		t.Fatal("streams 0 and 1 of seed 7, or seed 7's stream 1 and seed 8's stream 0, are identical")
	}
}

// A nil stream, an unseeded one and one seeded back to no noise are all the
// identity, and none of them draws.
func TestJitterDisabled(t *testing.T) {
	var unseeded, reseeded Jitter
	reseeded.Seed(0.3, 7, 0)
	reseeded.Seed(0, 7, 0)
	for name, j := range map[string]*Jitter{"nil": nil, "unseeded": &unseeded, "reseeded to zero": &reseeded} {
		if j.Scale(time.Second) != time.Second {
			t.Fatalf("%s jitter should be the identity", name)
		}
	}
	if reseeded != (Jitter{}) {
		t.Fatal("a stream seeded to no noise still holds its generator")
	}
}

func TestCrossProcAPIMisusePanics(t *testing.T) {
	s := New()
	var other *Proc
	s.Spawn("a", func(p *Proc) {
		other = p
		p.Sleep(time.Millisecond)
	})
	s.Spawn("b", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic when using another proc's handle")
			}
		}()
		other.Sleep(time.Millisecond) // b running, using a's handle
	})
	// The guard panic in "b" is recovered inside the proc, so Run sees a
	// normal exit for b and a clean exit for a.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: for any set of sleep durations, procs complete in sorted
// duration order and the clock ends at the max.
func TestSleepOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 50 {
			return true
		}
		s := New()
		type doneRec struct {
			d  time.Duration
			at time.Duration
		}
		var done []doneRec
		var max time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			if d > max {
				max = d
			}
			s.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				done = append(done, doneRec{d, p.Now()})
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if s.Now() != max {
			return false
		}
		for i := 1; i < len(done); i++ {
			if done[i].d < done[i-1].d {
				return false // completed out of duration order
			}
		}
		for _, rec := range done {
			if rec.at != rec.d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a channel delivers exactly the multiset sent, in FIFO order,
// regardless of capacity and interleaving delays.
func TestChanFIFOProperty(t *testing.T) {
	f := func(values []int32, capRaw uint8, seed int64) bool {
		if len(values) > 60 {
			values = values[:60]
		}
		capacity := int(capRaw % 8)
		s := New()
		rng := rand.New(rand.NewSource(seed))
		delays := make([]time.Duration, len(values))
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(1000)) * time.Microsecond
		}
		ch := NewChan[int32](s, "ch", capacity)
		var got []int32
		s.Spawn("sender", func(p *Proc) {
			for i, v := range values {
				p.Sleep(delays[i])
				ch.Send(p, v)
			}
			ch.Close()
		})
		s.Spawn("receiver", func(p *Proc) {
			for {
				v, ok := ch.Recv(p)
				if !ok {
					return
				}
				got = append(got, v)
				p.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != len(values) {
			return false
		}
		for i := range got {
			if got[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: whole-sim determinism — a pipeline of producers/consumers with
// shared semaphore and queue finishes at an identical virtual time across
// repeated runs.
func TestWholeSimDeterminismProperty(t *testing.T) {
	build := func(seed int64) time.Duration {
		s := New()
		var jit Jitter
		jit.Seed(0.2, seed, 0)
		q := NewQueue[int](s, "work")
		sem := s.NewSemaphore("cap", 3)
		for i := 0; i < 4; i++ {
			s.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(jit.Scale(50 * time.Microsecond))
					q.Put(j)
				}
			})
		}
		for i := 0; i < 2; i++ {
			s.Spawn(fmt.Sprintf("cons%d", i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					q.Get(p)
					sem.Acquire(p, 1)
					p.Sleep(jit.Scale(80 * time.Microsecond))
					sem.Release(1)
				}
			})
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		return s.Now()
	}
	for seed := int64(1); seed < 6; seed++ {
		a := build(seed)
		b := build(seed)
		if a != b {
			t.Fatalf("seed %d: run times differ: %v vs %v", seed, a, b)
		}
	}
}

// Finished procs must not stay pinned by the kernel's bookkeeping: a long
// run of short-lived procs keeps the ring of unfinished procs as long as the
// procs alive, in spawn order, while shutdown and the deadlock report still
// see every unfinished one.
func TestFinishedProcsAreUnlinked(t *testing.T) {
	s := New()
	listed := func() (names []string) {
		for p := s.procs.next; p != &s.procs; p = p.next {
			names = append(names, p.Name())
		}
		return names
	}
	never := s.NewEvent("never")
	s.SpawnDaemon("parked", func(p *Proc) { never.Wait(p) })
	peak := 0
	s.Spawn("parent", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			s.Spawn("child", func(c *Proc) { c.Sleep(time.Microsecond) })
			p.Sleep(2 * time.Microsecond)
			peak = max(peak, len(listed()))
		}
		s.Spawn("late", func(c *Proc) { never.Wait(c) })
		if got := listed(); !slices.Equal(got, []string{"parked", "parent", "late"}) {
			t.Errorf("unfinished procs listed as %v, want spawn order", got)
		}
		never.Wait(p)
	})
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want a deadlock on the unfired event", err)
	}
	if len(de.Blocked) != 3 {
		t.Fatalf("deadlock report lists %v, want parked, parent and late", de.Blocked)
	}
	if peak != 2 {
		t.Fatalf("%d procs listed after each child finished, want parked and parent", peak)
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("virtual time %v, want 20ms", s.Now())
	}
	if left := listed(); len(left) != 0 || s.procs.prev != &s.procs {
		t.Fatalf("procs %v still listed after shutdown", left)
	}
}
