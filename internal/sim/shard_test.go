package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// tnode is a test "node": a queue-draining proc pinned to one shard that
// can post timestamped arrivals to peers, mimicking how the fabric layer
// uses Sharded.
type tnode struct {
	sh  *Shard
	id  int
	q   *Queue[int]
	seq uint64
	log []string
}

func newTnode(sh *Shard, id int) *tnode {
	return &tnode{sh: sh, id: id, q: NewQueue[int](sh.Sim(), fmt.Sprintf("q%d", id))}
}

func (n *tnode) send(p *Proc, dst *tnode, lat time.Duration, v int) {
	n.seq++
	n.sh.PostArrival(p.Now()+lat, dst.sh.ID(), n.id, n.seq, "arr", func(w *Proc) {
		dst.q.Put(v)
	})
}

func (n *tnode) record(p *Proc, what string, v int) {
	n.log = append(n.log, fmt.Sprintf("%d %s %d", p.Now().Nanoseconds(), what, v))
}

// runFanout runs a deterministic multi-round neighbor-exchange workload on
// the given shard count and returns per-node logs plus elapsed time.
func runFanout(t *testing.T, nodes, shards, rounds int) ([][]string, time.Duration) {
	t.Helper()
	const lat = 100 * time.Nanosecond
	sc := NewSharded(shards)
	sc.SetLookahead(lat)
	ns := make([]*tnode, nodes)
	for i := range ns {
		ns[i] = newTnode(sc.Shard(i*shards/nodes), i)
	}
	for i := range ns {
		n := ns[i]
		n.sh.Sim().SpawnID("node", n.id, func(p *Proc) {
			for r := 0; r < rounds; r++ {
				// Uneven local compute so shards drift apart in real time.
				p.Sleep(time.Duration(1+n.id%3) * 10 * time.Nanosecond)
				for _, d := range []int{1, nodes / 2} {
					dst := ns[(n.id+d)%nodes]
					extra := time.Duration(n.id%2) * 30 * time.Nanosecond
					n.send(p, dst, lat+extra, n.id*1000+r)
				}
				for k := 0; k < 2; k++ {
					v := n.q.Get(p)
					n.record(p, "recv", v)
				}
			}
		}, nil)
	}
	if err := sc.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	logs := make([][]string, nodes)
	for i, n := range ns {
		logs[i] = n.log
	}
	return logs, sc.Now()
}

// TestShardedDeterminism pins the core property: per-node event logs and
// elapsed virtual time are bit-identical at every shard count.
func TestShardedDeterminism(t *testing.T) {
	const nodes, rounds = 8, 5
	refLogs, refElapsed := runFanout(t, nodes, 1, rounds)
	for _, shards := range []int{2, 4, 8} {
		logs, elapsed := runFanout(t, nodes, shards, rounds)
		if elapsed != refElapsed {
			t.Errorf("shards=%d: elapsed %v != %v", shards, elapsed, refElapsed)
		}
		for i := range logs {
			if len(logs[i]) != len(refLogs[i]) {
				t.Fatalf("shards=%d node %d: %d log entries != %d", shards, i, len(logs[i]), len(refLogs[i]))
			}
			for k := range logs[i] {
				if logs[i][k] != refLogs[i][k] {
					t.Errorf("shards=%d node %d entry %d: %q != %q", shards, i, k, logs[i][k], refLogs[i][k])
				}
			}
		}
	}
}

// TestShardedArrivalBeforeTimer pins the ordering rule: at equal virtual
// time, a cross-node arrival is delivered before a local timer fires, at
// every shard count.
func TestShardedArrivalBeforeTimer(t *testing.T) {
	const lat = 100 * time.Nanosecond
	for _, shards := range []int{1, 2} {
		sc := NewSharded(shards)
		sc.SetLookahead(lat)
		a := newTnode(sc.Shard(0), 0)
		b := newTnode(sc.Shard(shards-1), 1)
		a.sh.Sim().SpawnID("node", 0, func(p *Proc) {
			a.send(p, b, lat, 7) // arrives at exactly t=lat
		}, nil)
		b.sh.Sim().SpawnID("node", 1, func(p *Proc) {
			b.sh.Sim().SpawnID("waiter", 1, func(w *Proc) {
				v := b.q.Get(w)
				b.record(w, "recv", v)
			}, nil)
			p.Sleep(lat) // timer at exactly t=lat
			b.record(p, "timer", 0)
		}, nil)
		if err := sc.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		want := []string{"100 recv 7", "100 timer 0"}
		if len(b.log) != len(want) || b.log[0] != want[0] || b.log[1] != want[1] {
			t.Errorf("shards=%d: log %v, want %v", shards, b.log, want)
		}
	}
}

// TestSimRunDeliversArrivals pins the same hop on a plain Sim: Run stays
// alive for an arrival posted to its own simulator after the last proc has
// exited, delivers it ahead of a timer of the same instant, and reports a
// TimeoutError when only an arrival lies beyond SetMaxTime.
func TestSimRunDeliversArrivals(t *testing.T) {
	const lat = 100 * time.Nanosecond
	s := New()
	var log []string
	s.Spawn("poster", func(p *Proc) {
		for seq := uint64(1); seq <= 2; seq++ { // the second lands when no proc is left
			s.PostArrival(p.Now()+time.Duration(seq)*lat, s, 0, seq, "arr", func(w *Proc) {
				log = append(log, fmt.Sprintf("%d arrival", w.Now().Nanoseconds()))
			}, nil)
		}
	})
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(lat)
		log = append(log, fmt.Sprintf("%d timer", p.Now().Nanoseconds()))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(log), "[100 arrival 100 timer 200 arrival]"; got != want {
		t.Errorf("log %v, want %v", got, want)
	}
	if s.Now() != 2*lat {
		t.Errorf("run ended at %v, want %v", s.Now(), 2*lat)
	}

	s = New()
	s.SetMaxTime(10 * lat)
	s.Spawn("poster", func(p *Proc) {
		s.PostArrival(p.Now()+time.Second, s, 0, 1, "arr", func(*Proc) {
			t.Error("arrival beyond the ceiling was delivered")
		}, nil)
	})
	var to *TimeoutError
	if err := s.Run(); !errors.As(err, &to) {
		t.Fatalf("got %v, want TimeoutError", err)
	}
}

// TestShardedElapsedIgnoresDaemons pins that daemon poll timers racing to
// the window edge do not perturb Elapsed across shard counts.
func TestShardedElapsedIgnoresDaemons(t *testing.T) {
	var ref time.Duration
	for i, shards := range []int{1, 2, 4} {
		sc := NewSharded(shards)
		sc.SetLookahead(50 * time.Nanosecond)
		for sh := 0; sh < shards; sh++ {
			s := sc.Shard(sh).Sim()
			s.SpawnDaemon("poll", func(p *Proc) {
				for {
					p.Sleep(7 * time.Nanosecond)
				}
			})
		}
		a := newTnode(sc.Shard(0), 0)
		b := newTnode(sc.Shard(shards-1), 1)
		a.sh.Sim().SpawnID("node", 0, func(p *Proc) {
			a.send(p, b, 123*time.Nanosecond, 1)
		}, nil)
		b.sh.Sim().SpawnID("node", 1, func(p *Proc) {
			b.q.Get(p)
			p.Sleep(77 * time.Nanosecond)
		}, nil)
		if err := sc.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if i == 0 {
			ref = sc.Now()
			if ref != 200*time.Nanosecond {
				t.Fatalf("elapsed %v, want 200ns", ref)
			}
		} else if sc.Now() != ref {
			t.Errorf("shards=%d: elapsed %v != %v", shards, sc.Now(), ref)
		}
	}
}

// TestShardedDeadlock aggregates blocked procs from every shard.
func TestShardedDeadlock(t *testing.T) {
	sc := NewSharded(2)
	sc.SetLookahead(time.Microsecond)
	for i := 0; i < 2; i++ {
		s := sc.Shard(i).Sim()
		ev := s.NewEventID("never", i)
		s.SpawnID("stuck", i, func(p *Proc) {
			ev.Wait(p)
		}, nil)
	}
	err := sc.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked %v, want 2 procs", dl.Blocked)
	}
}

// TestShardedTimeout reports a TimeoutError once all pending events lie
// beyond the virtual-time ceiling, with the clock where the run stopped.
func TestShardedTimeout(t *testing.T) {
	sc := NewSharded(2)
	sc.SetLookahead(time.Microsecond)
	sc.SetMaxTime(10 * time.Microsecond)
	a := newTnode(sc.Shard(0), 0)
	b := newTnode(sc.Shard(1), 1)
	bounce := func(n, peer *tnode) func(p *Proc) {
		return func(p *Proc) {
			for {
				n.send(p, peer, 2*time.Microsecond, 0)
				n.q.Get(p)
			}
		}
	}
	a.sh.Sim().SpawnID("node", 0, bounce(a, b), nil)
	b.sh.Sim().SpawnID("node", 1, bounce(b, a), nil)
	err := sc.Run()
	var to *TimeoutError
	if !errors.As(err, &to) {
		t.Fatalf("got %v, want TimeoutError", err)
	}
	// No proc ever finished; a run cut short reports how far it got.
	if now := sc.Now(); now != 10*time.Microsecond {
		t.Errorf("clock after the timeout %v, want the last bounce at 10µs", now)
	}
}

// TestShardedPanicPropagates surfaces a proc panic as a PanicError.
func TestShardedPanicPropagates(t *testing.T) {
	sc := NewSharded(2)
	sc.SetLookahead(time.Microsecond)
	sc.Shard(1).Sim().Spawn("boom", func(p *Proc) {
		panic("kaboom")
	})
	err := sc.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
}

// TestShardedLookaheadViolation panics (surfaced as a PanicError) when an
// arrival is posted closer than the configured lookahead.
func TestShardedLookaheadViolation(t *testing.T) {
	sc := NewSharded(2)
	sc.SetLookahead(time.Microsecond)
	a := newTnode(sc.Shard(0), 0)
	b := newTnode(sc.Shard(1), 1)
	a.sh.Sim().SpawnID("node", 0, func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		a.send(p, b, 10*time.Nanosecond, 1) // below lookahead
	}, nil)
	b.sh.Sim().SpawnID("node", 1, func(p *Proc) {
		b.q.Get(p)
	}, nil)
	err := sc.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError for lookahead violation", err)
	}
}

// TestIdleInstantIgnoresArrivals: an arrival still in flight when the last of
// a simulation's own procs returns keeps the run alive — it is delivered, and
// the proc it spawns runs to its end — but neither moves the idle instant,
// and nor does a daemon ticking on: Now() after the run is the last own
// proc's return, under Sim.Run and on one shard and two.
func TestIdleInstantIgnoresArrivals(t *testing.T) {
	const lat = 100 * time.Nanosecond
	const ownDone, childDone = 70 * time.Nanosecond, 220 * time.Nanosecond
	// scenario puts an origin on a and everything else on b, and returns
	// where the arrival's child leaves the time of its return.
	scenario := func(a, b *Sim) *time.Duration {
		child := new(time.Duration)
		a.Spawn("origin", func(p *Proc) {
			p.Sleep(50 * time.Nanosecond)
			a.PostArrival(p.Now()+lat, b, 0, 1, "arr", func(w *Proc) {
				w.Sleep(30 * time.Nanosecond)
				b.Spawn("child", func(c *Proc) {
					c.Sleep(40 * time.Nanosecond)
					*child = c.Now()
				})
			}, nil)
		})
		b.Spawn("own", func(p *Proc) { p.Sleep(ownDone) })
		b.SpawnDaemon("ticker", func(p *Proc) {
			for {
				p.Sleep(7 * time.Nanosecond)
			}
		})
		return child
	}
	check := func(t *testing.T, err error, idle, child time.Duration) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if child != childDone {
			t.Errorf("the arrival's child returned at %v, want %v: the run did not stay alive for it", child, childDone)
		}
		if idle != ownDone {
			t.Errorf("idle instant %v, want the last own proc's return at %v", idle, ownDone)
		}
	}
	t.Run("Sim.Run", func(t *testing.T) {
		s := New()
		child := scenario(s, s)
		err := s.Run()
		check(t, err, time.Duration(s.idleAt), *child)
	})
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sc := NewSharded(shards)
			sc.SetLookahead(lat)
			child := scenario(sc.Shard(0).Sim(), sc.Shard(shards-1).Sim())
			err := sc.Run()
			check(t, err, sc.Now(), *child)
		})
	}
}
