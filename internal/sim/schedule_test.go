package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"
	"time"
)

// The schedule golden: a seeded mix of procs over every primitive, logging
// (now, proc name) at each resume. A Sim's schedule — the sequence of
// ready-queue pops, timer fires and arrival spawns — is what every virtual
// time above this package is made of, so the digests below were recorded
// before the switch path was rewritten (PR 21) and must not move when it is
// touched again.

const (
	schedNodes     = 8
	schedWorkers   = 24
	schedSteps     = 8
	schedLookahead = 100 * time.Nanosecond
)

// schedNode is one "node" of the golden: procs that share queues, a resource
// and a semaphore, and reach other nodes only through PostArrival.
type schedNode struct {
	id    int
	s     *Sim
	peers []*schedNode
	// log receives every resume on this node: into the node's own digest
	// and into its Sim's.
	log   io.Writer
	nodeH hash.Hash64
	// resumes points at the count of resumes logged on this node's Sim.
	resumes *int

	inbox *Queue[int]
	pipe  *Chan[int]
	res   *Resource
	sem   *Semaphore
	xseq  uint64
}

func (n *schedNode) resumed(p *Proc) {
	*n.resumes++
	fmt.Fprintf(n.log, "%d %s\n", p.Now().Nanoseconds(), p.Name())
}

func (n *schedNode) name(what string, i int) string {
	return fmt.Sprintf("n%d/%s%d", n.id, what, i)
}

// post delivers v to dst's inbox after lat, as an arrival proc on dst's Sim.
func (n *schedNode) post(p *Proc, dst *schedNode, lat time.Duration, v int) {
	n.xseq++
	n.s.PostArrival(p.Now()+lat, dst.s, n.id, n.xseq, fmt.Sprintf("n%d/arr", dst.id), func(a *Proc) {
		dst.resumed(a)
		dst.inbox.Put(v)
	}, nil)
}

type schedOp struct {
	kind int
	d    time.Duration
	k    int
}

const schedKinds = 9

// do runs one scripted step on p, logging each time p resumes.
func (n *schedNode) do(p *Proc, op schedOp, tag int) {
	s := n.s
	switch op.kind {
	case 0: // Sleep, or Yield when d is 0
		p.Sleep(op.d)
	case 1:
		n.res.Use(p, op.d)
	case 2:
		n.sem.Acquire(p, op.k)
		n.resumed(p)
		p.Sleep(op.d)
		n.sem.Release(op.k)
	case 3: // a wire hop to another node
		n.post(p, n.peers[(n.id+op.k)%len(n.peers)], schedLookahead+op.d, tag)
		p.Yield()
	case 4: // a same-node arrival, closer than the lookahead
		n.post(p, n, op.d, tag)
		p.Yield()
	case 5: // Event fired by a nested spawn
		ev := s.NewEvent("ev")
		s.Spawn(n.name("ev-child", tag), func(c *Proc) {
			c.Sleep(op.d)
			n.resumed(c)
			ev.Fire()
		})
		ev.Wait(p)
	case 6: // WaitGroup over k nested spawns
		wg := s.NewWaitGroup("wg", op.k)
		for i := 0; i < op.k; i++ {
			d := op.d * time.Duration(i+1)
			s.SpawnID(n.name("wg-child", tag), i, func(c *Proc) {
				c.Sleep(d)
				n.resumed(c)
				wg.Done()
			}, nil)
		}
		wg.Wait(p)
	case 7: // unbuffered Chan: k picks who parks first
		ch := NewChan[int](s, "rdv", 0)
		s.Spawn(n.name("rdv-child", tag), func(c *Proc) {
			for {
				if _, ok := ch.Recv(c); !ok {
					return
				}
				n.resumed(c)
			}
		})
		if op.k%2 == 0 {
			p.Yield()
			n.resumed(p)
		}
		ch.Send(p, 1)
		n.resumed(p)
		ch.Send(p, 2)
		ch.Close()
	case 8: // one-slot Chan with a producer that outruns the consumer
		ch := NewChan[int](s, "buf", 1)
		s.Spawn(n.name("buf-child", tag), func(c *Proc) {
			for i := 0; i < 3; i++ {
				ch.Send(c, i)
				n.resumed(c)
			}
			ch.Close()
		})
		p.Sleep(op.d)
		for {
			n.resumed(p)
			if _, ok := ch.Recv(p); !ok {
				break
			}
		}
	}
	n.resumed(p)
}

func schedScript(rng *rand.Rand, steps int) []schedOp {
	ops := make([]schedOp, steps)
	for i := range ops {
		ops[i] = schedOp{
			kind: rng.Intn(schedKinds),
			d:    time.Duration(rng.Intn(41)) * time.Nanosecond,
			k:    1 + rng.Intn(3),
		}
	}
	return ops
}

// bringUp spawns the node's daemons, its group and its workers.
func (n *schedNode) bringUp(rng *rand.Rand) {
	s := n.s
	s.SpawnDaemon(n.name("tick", 0), func(p *Proc) {
		for {
			p.Sleep(time.Duration(37+n.id) * time.Nanosecond)
			n.resumed(p)
		}
	})
	s.SpawnDaemon(n.name("pump", 0), func(p *Proc) {
		for {
			v := n.inbox.Get(p)
			n.resumed(p)
			n.sem.Acquire(p, 1)
			p.Sleep(3 * time.Nanosecond)
			n.sem.Release(1)
			if !n.pipe.TrySend(v) {
				n.res.Use(p, 2*time.Nanosecond)
			}
		}
	})
	s.SpawnDaemon(n.name("drain", 0), func(p *Proc) {
		for {
			n.pipe.Recv(p)
			n.resumed(p)
			p.Sleep(11 * time.Nanosecond)
		}
	})

	// A tenant-shaped group: two members with a child each and a daemon;
	// the member whose return empties it spawns a reaper and asks the loop
	// to kill what is left — the daemon in its Sleep, and the reaper if the
	// loop gets there first.
	var g *Group
	g = s.NewGroup(func() {
		s.Spawn(n.name("reaper", 0), func(p *Proc) {
			n.resumed(p)
			p.Sleep(5 * time.Nanosecond)
			n.resumed(p)
		})
		s.Inject(g.Kill)
	})
	s.InGroup(g, func() {
		for i := 0; i < 2; i++ {
			script := schedScript(rng, schedSteps/2)
			s.Spawn(n.name("member", i), func(p *Proc) {
				for j, op := range script {
					n.do(p, op, 1000+10*i+j)
				}
			})
		}
		s.SpawnDaemon(n.name("member-daemon", 0), func(p *Proc) {
			for {
				p.Sleep(53 * time.Nanosecond)
				n.resumed(p)
			}
		})
	})

	for i := 0; i < schedWorkers; i++ {
		script := schedScript(rng, schedSteps)
		s.SpawnID(n.name("w", i), i, func(p *Proc) {
			for j, op := range script {
				n.do(p, op, 100*i+j)
			}
		}, nil)
	}
}

// runSchedule runs the golden workload on shards simulators (0: one plain
// Sim under Sim.Run) and returns the digest of every Sim's resume sequence,
// the per-node digests, and how many resumes were logged.
func runSchedule(t *testing.T, shards int) (sims string, nodes []uint64, resumes int) {
	t.Helper()
	var ss []*Sim
	run := func() error { return ss[0].Run() }
	if shards == 0 {
		ss = []*Sim{New()}
	} else {
		sc := NewSharded(shards)
		sc.SetLookahead(schedLookahead)
		for i := 0; i < shards; i++ {
			ss = append(ss, sc.Shard(i).Sim())
		}
		run = sc.Run
	}
	simH := make([]hash.Hash64, len(ss))
	counts := make([]int, len(ss))
	for i := range simH {
		simH[i] = fnv.New64a()
	}
	rng := rand.New(rand.NewSource(21))
	ns := make([]*schedNode, schedNodes)
	for i := range ns {
		si := i * len(ss) / schedNodes
		s := ss[si]
		n := &schedNode{id: i, s: s, peers: ns, nodeH: fnv.New64a(), resumes: &counts[si],
			inbox: NewQueue[int](s, "inbox"), pipe: NewChan[int](s, "pipe", 2),
			res: s.NewResource("res", 2), sem: s.NewSemaphore("sem", 3)}
		n.log = io.MultiWriter(n.nodeH, simH[si])
		ns[i] = n
	}
	for _, n := range ns {
		n.bringUp(rng)
	}
	if err := run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	for i, h := range simH {
		sims += fmt.Sprintf("%016x ", h.Sum64())
		resumes += counts[i]
	}
	for _, n := range ns {
		nodes = append(nodes, n.nodeH.Sum64())
	}
	return sims, nodes, resumes
}

// TestScheduleGolden pins the whole schedule of every Sim under each loop.
// A plain Sim and a Sharded of one shard differ only in when Inject thunks
// land (the next step, the next window edge) and in how far daemons tick
// past the last non-daemon return.
func TestScheduleGolden(t *testing.T) {
	golden := []struct {
		shards int
		sims   string
	}{
		{0, "f03ddb6372c9b16c "},
		{1, "0ca546e517911c49 "},
		{4, "136297a0b8e3c50a 14f89d91bd55a448 335746526c8f4d40 59459b2a6ecde3d6 "},
	}
	var oneShard []uint64
	for _, g := range golden {
		sims, nodes, resumes := runSchedule(t, g.shards)
		t.Logf("shards=%d: %d resumes, %s", g.shards, resumes, sims)
		if resumes < 5000 {
			t.Errorf("shards=%d: only %d resumes logged; the workload has shrunk", g.shards, resumes)
		}
		if sims != g.sims {
			t.Errorf("shards=%d: schedule digest %q, pinned %q", g.shards, sims, g.sims)
		}
		switch g.shards {
		case 1:
			oneShard = nodes
		case 4:
			for i := range nodes {
				if nodes[i] != oneShard[i] {
					t.Errorf("node %d: schedule differs between 1 and 4 shards", i)
				}
			}
		}
	}
}
