package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/live"
	"dcgn/internal/transport/simmpi"
)

// The collective conformance table: the same cluster-wide set of CollOps
// (one per node) runs directly on simmpi endpoints, over flat and tree MPI
// collectives, and on live endpoints, and every backend must leave the
// buffers a sequential reference (want) computes.
//
// For a set in which every op passes Check, every node succeeds on every
// backend. Where some op fails Check the backends differ by design: on the
// simulator a node that fails Check returns its error without joining, so
// the others finish (an eager send to a root that left) or stay blocked (a
// DeadlockError ends the run); on the live backend the rendezvous checks
// every node's op, so the whole round fails and no byte moves.

// outcome is how one node's Collective call ended.
type outcome int

const (
	ok      outcome = iota // returned nil
	failed                 // returned an error
	blocked                // never returned: the run deadlocked around it
)

func (o outcome) String() string { return [...]string{"ok", "failed", "blocked"}[o] }

// result is one backend's run of a cluster-wide op set.
type result struct {
	ops  []*transport.CollOp // the backend's own copy, buffers as left
	outs []outcome
	errs []error
}

// pattern fills a fresh n-byte buffer with bytes that depend on seed.
func pattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*37 + i*7 + 1)
	}
	return b
}

// makeOps builds a well-formed cluster-wide op set of kind over nodes,
// rooted at root: count(i, j) is node i's byte count (Gatherv, Scatterv:
// j is 0), node i's segment to node j (Alltoallv), or the broadcast length
// (Bcast: count(0, 0)). Send buffers carry a per-node pattern; receive
// buffers and non-root broadcast buffers are zero.
func makeOps(kind transport.CollKind, nodes, root int, count func(i, j int) int) []*transport.CollOp {
	ops := make([]*transport.CollOp, nodes)
	total := 0
	counts := make([]int, nodes)
	for i := range counts {
		counts[i] = count(i, 0)
		total += counts[i]
	}
	for i := range ops {
		op := &transport.CollOp{Kind: kind, Root: root}
		switch kind {
		case transport.Bcast:
			op.Send = make([]byte, count(0, 0))
			if i == root {
				op.Send = pattern(count(0, 0), i)
			}
		case transport.Gatherv:
			op.Counts, op.Send = counts, pattern(counts[i], i)
			if i == root {
				op.Recv = make([]byte, total)
			}
		case transport.Scatterv:
			op.Counts, op.Recv = counts, make([]byte, counts[i])
			if i == root {
				op.Send = pattern(total, i)
			}
		case transport.Alltoallv:
			op.Counts, op.RecvCounts = make([]int, nodes), make([]int, nodes)
			send, recv := 0, 0
			for j := 0; j < nodes; j++ {
				op.Counts[j], op.RecvCounts[j] = count(i, j), count(j, i)
				send, recv = send+op.Counts[j], recv+op.RecvCounts[j]
			}
			op.Send, op.Recv = pattern(send, i), make([]byte, recv)
		}
		ops[i] = op
	}
	return ops
}

// clone deep-copies an op set, so each backend runs on buffers of its own.
func clone(ops []*transport.CollOp) []*transport.CollOp {
	cp := make([]*transport.CollOp, len(ops))
	for i, op := range ops {
		c := *op
		if op.Send != nil {
			c.Send = append([]byte{}, op.Send...)
		}
		if op.Recv != nil {
			c.Recv = append([]byte{}, op.Recv...)
		}
		c.Counts = append([]int(nil), op.Counts...)
		c.RecvCounts = append([]int(nil), op.RecvCounts...)
		cp[i] = &c
	}
	return cp
}

// want computes, sequentially, the buffers a well-formed op set leaves: the
// bytes the counts say moved, and every other byte as it was.
func want(ops []*transport.CollOp) []*transport.CollOp {
	out := clone(ops)
	root := ops[ops[0].Root]
	off := 0
	for i, op := range ops {
		switch op.Kind {
		case transport.Bcast:
			copy(out[i].Send, root.Send)
		case transport.Gatherv:
			copy(out[op.Root].Recv[off:], op.Send[:root.Counts[i]])
			off += root.Counts[i]
		case transport.Scatterv:
			copy(out[i].Recv, root.Send[off:off+root.Counts[i]])
			off += root.Counts[i]
		case transport.Alltoallv:
			sendOff := 0
			for j, seg := range op.Counts {
				recvOff := 0
				for _, c := range ops[j].RecvCounts[:i] {
					recvOff += c
				}
				copy(out[j].Recv[recvOff:], op.Send[sendOff:sendOff+seg])
				sendOff += seg
			}
		}
	}
	return out
}

// runSim runs the set on simmpi endpoints of a fresh simulated world, one
// proc per node, flat or with MPI's tree collectives. A run that ends with
// nodes still blocked must be a DeadlockError; any other run error (a
// panicking proc) fails the test.
func runSim(t *testing.T, ops []*transport.CollOp, tree bool) result {
	t.Helper()
	n := len(ops)
	s := sim.New()
	s.SetMaxTime(time.Second)
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	cfg := mpi.DefaultConfig()
	cfg.TreeCollectives = tree
	g := simmpi.WorldGroup(mpi.NewWorld(s, fabric.New(s, n, fabric.DefaultConfig()), nodeOf, cfg))
	res := result{ops: clone(ops), outs: make([]outcome, n), errs: make([]error, n)}
	for i := range res.outs {
		res.outs[i] = blocked
		s.Spawn("node", func(p *sim.Proc) {
			res.errs[i] = transport.Collective(p, g.Endpoint(i), res.ops[i])
			res.outs[i] = ok
			if res.errs[i] != nil {
				res.outs[i] = failed
			}
		})
	}
	err := s.Run()
	var dl *sim.DeadlockError
	if err != nil && !errors.As(err, &dl) {
		t.Fatalf("sim run: %v", err)
	}
	if stuck := slices.Contains(res.outs, blocked); stuck != (err != nil) {
		t.Fatalf("sim nodes ended %v, the run with %v", res.outs, err)
	}
	return res
}

// runLive runs the set on a fresh live cluster, one goroutine per node; a
// node still blocked after five seconds fails the test.
func runLive(t *testing.T, ops []*transport.CollOp) result {
	t.Helper()
	n := len(ops)
	c := live.New(n, nil)
	defer c.Close()
	wall := &transport.WallProc{Epoch: time.Now()}
	res := result{ops: clone(ops), outs: make([]outcome, n), errs: make([]error, n)}
	var wg sync.WaitGroup
	for i := range res.outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.errs[i] = transport.Collective(wall, c.Node(i), res.ops[i])
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("live collective still blocked after 5s")
	}
	for i, err := range res.errs {
		if res.outs[i] = ok; err != nil {
			res.outs[i] = failed
		}
	}
	return res
}

// checkAll runs ops on every backend and holds each to the rules above. A
// broadcast whose lengths disagree passes every node's Check: the live
// rendezvous fails the round, and on the simulator no node hangs, every
// node whose buffer differs in length from the root's fails, and a node
// that succeeds holds the root's bytes — except a node with an empty
// buffer, which has nothing to hold.
func checkAll(t *testing.T, ops []*transport.CollOp) {
	t.Helper()
	bad := make([]bool, len(ops))
	anyBad := false
	for i, op := range ops {
		bad[i] = op.Check(len(ops), i) != nil
		anyBad = anyBad || bad[i]
	}
	checked := !anyBad // every op passes Check
	var rootSend []byte
	if checked && ops[0].Kind == transport.Bcast {
		rootSend = slices.Clone(ops[ops[0].Root].Send)
		for i, op := range ops {
			bad[i] = len(op.Send) != len(rootSend)
			anyBad = anyBad || bad[i]
		}
	}
	ref := ops // live moves no byte of a failed round
	if !anyBad {
		ref = want(ops)
	}
	runs := map[string]result{"sim-flat": runSim(t, ops, false), "sim-tree": runSim(t, ops, true), "live": runLive(t, ops)}
	for name, r := range runs {
		for i, o := range r.outs {
			switch {
			case !anyBad && o != ok:
				t.Fatalf("%s node %d: %v (%v) on a well-formed set", name, i, o, r.errs[i])
			case bad[i] && o != failed && (!checked || len(ops[i].Send) > 0):
				t.Fatalf("%s node %d: %v on a malformed op", name, i, o)
			case anyBad && name == "live" && o != failed:
				t.Fatalf("live node %d: %v in a round with a malformed op", i, o)
			case anyBad && checked && o == blocked:
				t.Fatalf("%s node %d: blocked in a broadcast of mismatched lengths", name, i)
			case anyBad && checked && o == ok && name != "live" && len(ops[i].Send) > 0 && !bytes.Equal(r.ops[i].Send, rootSend):
				t.Fatalf("%s node %d: succeeded holding %v, the root sent %v", name, i, r.ops[i].Send, rootSend)
			}
		}
		if anyBad && name != "live" {
			continue // the nodes that joined moved what they could
		}
		for i, op := range r.ops {
			if !bytes.Equal(op.Send, ref[i].Send) || !bytes.Equal(op.Recv, ref[i].Recv) {
				t.Fatalf("%s node %d left send %v recv %v, want %v %v", name, i, op.Send, op.Recv, ref[i].Send, ref[i].Recv)
			}
		}
	}
}

func TestCollOpConformance(t *testing.T) {
	uneven := func(i, j int) int { return 3 + 2*i + 5*j }
	for nodes := 1; nodes <= 4; nodes++ {
		for kind := transport.Barrier; kind <= transport.Alltoallv; kind++ {
			for root := 0; root < nodes; root++ {
				t.Run(fmt.Sprintf("%v/%dn/root%d", kind, nodes, root), func(t *testing.T) {
					checkAll(t, makeOps(kind, nodes, root, uneven))
				})
			}
		}
	}
	// Past the eager limit (rendezvous sends) and the tree broadcast's
	// scatter–allgather switch.
	large := func(i, j int) int { return 20<<10 + i + j }
	for _, kind := range []transport.CollKind{transport.Bcast, transport.Gatherv, transport.Scatterv, transport.Alltoallv} {
		t.Run(fmt.Sprintf("%v/large", kind), func(t *testing.T) {
			checkAll(t, makeOps(kind, 3, 1, large))
		})
	}
	// Zero-byte counts on some nodes.
	t.Run("gatherv/empty-node", func(t *testing.T) {
		checkAll(t, makeOps(transport.Gatherv, 3, 2, func(i, _ int) int { return 4 * (i % 2) }))
	})
}

// TestCollOpMalformed: each malformed op of a 2-node set (node 0 the root)
// fails Check on the node that passed it, and no backend panics or hangs.
func TestCollOpMalformed(t *testing.T) {
	eight := func(int, int) int { return 8 }
	cases := []struct {
		name string
		kind transport.CollKind
		bad  func(ops []*transport.CollOp)
	}{
		{"gatherv/short-root-recv", transport.Gatherv, func(ops []*transport.CollOp) { ops[0].Recv = ops[0].Recv[:4] }},
		{"gatherv/nil-root-recv", transport.Gatherv, func(ops []*transport.CollOp) { ops[0].Recv = nil }},
		{"gatherv/long-send", transport.Gatherv, func(ops []*transport.CollOp) { ops[1].Send = make([]byte, 9) }},
		{"scatterv/short-root-send", transport.Scatterv, func(ops []*transport.CollOp) { ops[0].Send = ops[0].Send[:4] }},
		{"scatterv/short-recv", transport.Scatterv, func(ops []*transport.CollOp) { ops[1].Recv = ops[1].Recv[:4] }},
		{"alltoallv/short-recv", transport.Alltoallv, func(ops []*transport.CollOp) { ops[1].Recv = ops[1].Recv[:4] }},
		{"alltoallv/short-send", transport.Alltoallv, func(ops []*transport.CollOp) { ops[0].Send = ops[0].Send[:15] }},
		{"alltoallv/counts-length", transport.Alltoallv, func(ops []*transport.CollOp) { ops[1].RecvCounts = ops[1].RecvCounts[:1] }},
		{"gatherv/negative-count", transport.Gatherv, func(ops []*transport.CollOp) {
			for _, op := range ops {
				op.Counts = []int{8, -8}
			}
		}},
		{"bcast/short-root", transport.Bcast, func(ops []*transport.CollOp) { ops[1].Send = make([]byte, 9) }},
		{"bcast/short-member", transport.Bcast, func(ops []*transport.CollOp) { ops[1].Send = ops[1].Send[:4] }},
		{"bcast/root-outside", transport.Bcast, func(ops []*transport.CollOp) {
			for _, op := range ops {
				op.Root = 2
			}
		}},
		{"unknown-kind", transport.Barrier, func(ops []*transport.CollOp) {
			for _, op := range ops {
				op.Kind = transport.Alltoallv + 1
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ops := makeOps(c.kind, 2, 0, eight)
			c.bad(ops)
			if ops[0].Check(2, 0) == nil && ops[1].Check(2, 1) == nil && c.kind != transport.Bcast {
				t.Fatal("the malformed op passes Check")
			}
			checkAll(t, ops)
		})
	}
	// A member with a short buffer inside a broadcast tree forwards what it
	// holds, so its subtree is not left waiting: node 2 is node 3's parent
	// when node 0 roots four nodes.
	t.Run("bcast/short-inner-member", func(t *testing.T) {
		ops := makeOps(transport.Bcast, 4, 0, eight)
		ops[2].Send = ops[2].Send[:4]
		checkAll(t, ops)
	})
	// Past the scatter–allgather switch (Config.TreeCollectives, more than
	// 8 KiB): the chunks a member expects follow its own buffer's length,
	// so a root three bytes short of its members, or an inner member three
	// bytes short of the root, must not leave a member of another length
	// succeeding on bytes that are not the root's.
	large := func(int, int) int { return 9000 }
	t.Run("bcast/large-short-root", func(t *testing.T) {
		ops := makeOps(transport.Bcast, 4, 0, large)
		ops[0].Send = ops[0].Send[:8997]
		checkAll(t, ops)
	})
	t.Run("bcast/large-short-member", func(t *testing.T) {
		ops := makeOps(transport.Bcast, 4, 0, large)
		ops[2].Send = ops[2].Send[:8997]
		checkAll(t, ops)
	})
}

// FuzzCollOp decodes its input into one cluster-wide collective — 1 to 4
// nodes, a kind (or one past the last), a root and agreeing per-node
// counts — then lengthens, shortens or drops some buffers. Check must
// never panic; a set that passes it must leave the reference's buffers on
// every backend, and one that does not must neither panic nor hang; a
// broadcast whose lengths disagree is held to checkAll's rules for it. Its
// seeds are under testdata/fuzz/FuzzCollOp.
func FuzzCollOp(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nodes := 1 + next()%4
		kind := transport.CollKind(next() % 6)
		root := next() % nodes
		counts := make([]int, nodes*nodes)
		for i := range counts {
			counts[i] = next() % 40
		}
		ops := makeOps(kind, nodes, root, func(i, j int) int { return counts[i*nodes+j] })
		for len(data) >= 2 {
			b, d := next(), next()%9-4
			op := ops[(b>>2)%nodes]
			buf := &op.Send
			if b&1 != 0 {
				buf = &op.Recv
			}
			switch {
			case b&2 != 0:
				*buf = nil
			case len(*buf)+d >= 0:
				*buf = make([]byte, len(*buf)+d)
			}
		}
		for i, op := range ops {
			_ = op.Check(nodes-1, i) // shape errors, not panics
			_ = op.Check(nodes, i-1)
		}
		checkAll(t, ops)
	})
}
