package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"dcgn/internal/transport"
)

// collRetries bounds re-executions of a node-level collective that failed
// with transport.ErrTransient. Transient failures are cluster-consistent
// (every node's middleware fails the same round — see internal/transport/
// faults), so all nodes retry in lockstep and the rendezvous stays intact.
const collRetries = 16

// collGroup gathers local arrivals for one in-progress collective.
type collGroup struct {
	root    int
	size    int // per-rank payload size, must agree across members
	members []*request
	// firstAt is when the first local member arrived; the span from it to
	// the last resident's arrival is the collective-accumulation wait the
	// job's metrics histogram.
	firstAt time.Duration
	// err records a mismatch among the arrivals (root or size). The group
	// keeps accumulating so late ranks don't hang, and fails every member
	// once complete.
	err error
}

// collAccum is the progress engine's collective-accumulation layer, owned
// by one comm thread: it gathers local arrivals for each collective until
// every resident rank has joined, then executes one node-level transport
// call and disperses the results locally (paper §3.2.3).
type collAccum struct {
	ns     *nodeState
	groups map[opKind]*collGroup
	// spare is the last executed group, members slice and all, which the
	// next collective to start reuses: a node executes one group at a time.
	spare *collGroup
	// ex is the execution of a complete group, made by the node's first:
	// a job that makes no collective pays nothing for it.
	ex *collExec
}

// collExec is the execution of one complete group at a time, a step form
// of the comm thread (step): the group, the cursor, and the node-level op,
// which keeps the transport's own progress (CollOp.Wire) from one
// collective to the next.
type collExec struct {
	ns      *nodeState
	g       *collGroup // the complete group being executed
	op      transport.CollOp
	phase   uint8
	i       int  // the phase's loop cursor
	charged bool // the charge of the cursor's copy or notify is made
	attempt int
	err     error
	n       int      // the byte count each member's completion reports
	chosen  *request // a broadcast's source buffer
	// bufs are the pool buffers the execution has staged, each released
	// once the execution is done with it (or by drop): a node buffer or an
	// all-to-all's send staging, and an all-to-all's receive staging.
	bufs [2][]byte
}

func newCollAccum(ns *nodeState) *collAccum {
	return &collAccum{ns: ns, groups: make(map[opKind]*collGroup)}
}

// reset empties ca for a recycled engine's next tenant, keeping its map:
// the groups it was accumulating, its spare group and its execution, whose
// op kept the transport progress of a dead tenant's group, are dropped.
func (ca *collAccum) reset() {
	clear(ca.groups)
	*ca = collAccum{ns: ca.ns, groups: ca.groups}
}

// pending reports how many collective requests are parked waiting for the
// rest of their group.
func (ca *collAccum) pending() int {
	n := 0
	for _, g := range ca.groups {
		n += len(g.members)
	}
	return n
}

// add accumulates arrivals; once every resident rank has initiated the
// collective, it readies the group's execution (step): the underlying
// transport collective runs and results are dispersed locally (paper
// §3.2.3). Arrivals that disagree on the root or payload size poison the
// group rather than panicking or hanging: the group still waits for all
// residents (so nobody blocks forever on a missing member), then joins the
// node-level round all the same with a well-shaped op — the first
// arrival's root and size over zeroed pool scratch (poisonOp) — so the
// other nodes' members complete, reading zeros for this node's block, and
// only this node's members fail, with the mismatch error. A complete group
// whose op fails CollOp.Check (a root buffer too short for the counts) is
// poisoned the same way, so on every backend only the node that passed the
// bad buffer fails.
func (ca *collAccum) add(p transport.Proc, req *request) {
	ns := ca.ns
	g := ca.groups[req.op]
	if g == nil {
		g, ca.spare = ca.spare, nil
		if g == nil {
			g = &collGroup{members: make([]*request, 0, ns.localRanks())}
		}
		g.root, g.size, g.firstAt = req.peer, -1, p.Now()
		ca.groups[req.op] = g
	}
	if req.peer != g.root && g.err == nil {
		g.err = fmt.Errorf("dcgn: collective %v root mismatch on node %d: rank %d joined with root %d, group has root %d",
			req.op, ns.node, req.rank, req.peer, g.root)
	}
	if req.op != opBarrier {
		n := collPayloadLen(req)
		if g.size == -1 {
			g.size = n
		} else if g.size != n && g.err == nil {
			g.err = fmt.Errorf("dcgn: collective %v size mismatch on node %d: rank %d joined with %d bytes, group has %d",
				req.op, ns.node, req.rank, n, g.size)
		}
	}
	if req.op == opAlltoall && len(req.recvBuf) != len(req.buf) && g.err == nil {
		g.err = fmt.Errorf("dcgn: alltoall on node %d: rank %d passes %d bytes to send and %d to receive",
			ns.node, req.rank, len(req.buf), len(req.recvBuf))
	}
	g.members = append(g.members, req)
	if len(g.members) < ns.localRanks() {
		return
	}
	delete(ca.groups, req.op)
	if m := ns.job.metrics; m != nil {
		m.observe(histKey{kind: histCollWait, op: req.op}, int64(p.Now()-g.firstAt))
	}
	slices.SortFunc(g.members, func(a, b *request) int { return a.rank - b.rank })
	if ca.ex == nil {
		ca.ex = &collExec{ns: ns}
	}
	ca.ex.g, ca.ex.phase = g, ceStage
}

// The phases of a group's execution.
const (
	ceIdle     uint8 = iota // no group is complete: the arrival is done
	ceStage                 // stage the node-level op (charged copies)
	ceCall                  // make it, retrying transient failures
	ceDisperse              // disperse its results locally
	ceDone                  // notify the members (collDone)
)

// step advances the execution of the complete group, if there is one, and
// reports whether it is done: the comm thread's step form for a collective
// arrival.
func (ca *collAccum) step(h transport.Proc) bool { return ca.ex == nil || ca.ex.step(h) }

// step advances the execution of the complete group, if there is one, and
// reports whether it is done. Each op kind stages its node-level call in
// ex.op (stage), makes it (call), disperses its results locally once it
// succeeds (disperse), and ends in collDone.
func (ex *collExec) step(h transport.Proc) bool {
	ns, g := ex.ns, ex.g
	for {
		switch ex.phase {
		case ceIdle:
			return true
		case ceStage:
			if g.err == nil && !ex.stage(h) {
				return false
			}
			if ex.phase != ceStage {
				continue // the group failed before any op could be staged
			}
			if g.err == nil {
				// An op the transport would refuse poisons the group too:
				// the node joins the round all the same.
				if err := ex.op.Check(ns.job.rmap.Nodes(), ns.node); err != nil {
					g.err = err
					ex.release()
					ex.op = transport.CollOp{Wire: ex.op.Wire}
				}
			}
			if g.err != nil {
				ex.poisonOp()
			}
			ex.phase, ex.i = ceCall, 0
		case ceCall:
			if !ex.call(h) {
				return false
			}
			ex.phase, ex.i = ceDisperse, 0
			if g.err != nil {
				ex.err, ex.phase = g.err, ceDone
			}
		case ceDisperse:
			if !ex.disperse(h) {
				return false
			}
			ex.phase, ex.i = ceDone, 0
		case ceDone:
			if !ex.collDone(h) {
				return false
			}
			ex.release()
			ex.end()
			return true
		}
	}
}

// fail ends the execution before its call with err: every member fails
// with it.
func (ex *collExec) fail(err error) {
	ex.release()
	ex.err, ex.n = err, 0
	ex.phase, ex.i = ceDone, 0
}

// end readies the accumulator for the next complete group, keeping this
// one for reuse; the op keeps the transport's progress for the next call.
func (ex *collExec) end() {
	g := ex.g
	clear(g.members)
	g.members, g.err = g.members[:0], nil
	ex.ns.coll.spare = g
	ex.g, ex.chosen, ex.err, ex.n, ex.attempt = nil, nil, nil, 0, 0
	ex.phase, ex.i, ex.charged = ceIdle, 0, false
	ex.op = transport.CollOp{Wire: ex.op.Wire}
}

// release gives the staged pool buffers back.
func (ex *collExec) release() {
	ex.releaseBuf(0)
	ex.releaseBuf(1)
}

// releaseBuf gives staged pool buffer i back.
func (ex *collExec) releaseBuf(i int) {
	if b := ex.bufs[i]; b != nil {
		ex.ns.job.pool.Put(b)
		ex.bufs[i] = nil
	}
}

// drop gives back what an execution its comm thread was killed in holds:
// the transport's posted receives and the staged buffers.
func (ex *collExec) drop() {
	ex.op.Drop()
	ex.release()
}

// chargeStep charges d once for the cursor's copy or notify, as a step
// form: it reports false when it has registered h's wake, and true when the
// charge is made — on the next step, or at once on the live backend.
func (ex *collExec) chargeStep(h transport.Proc, d time.Duration) bool {
	if ex.charged {
		ex.charged = false
		return true
	}
	if sleepStep(h, ex.ns.jit, d) {
		return true
	}
	ex.charged = true
	return false
}

// call makes the node-level collective, retrying transient injected
// failures with the reliability layer's backoff schedule (charged as
// comm-thread time; the comm thread is busy for the duration of a
// collective). Non-transient errors surface immediately; either way the
// outcome is ex.err. An all-to-all's send staging goes back once the call
// is over, and its receive staging too if the call failed.
func (ex *collExec) call(h transport.Proc) bool {
	ns := ex.ns
	for {
		if ex.i == 1 { // a retry's backoff is to be charged
			if !ex.chargeStep(h, relBackoff(ns.job.cfg.Reliability, ex.attempt-1)) {
				return false
			}
			ex.i = 0
		}
		done, err := ns.tr.CollectiveStep(h, &ex.op)
		if !done {
			return false
		}
		ex.err = err
		if err == nil || !errors.Is(err, transport.ErrTransient) || ex.attempt == collRetries {
			break
		}
		ex.attempt, ex.i = ex.attempt+1, 1
		atomic.AddInt64(&ns.collRetried, 1)
	}
	if ex.op.Kind == transport.Alltoallv && ex.g.err == nil {
		ex.releaseBuf(0)
		if ex.err != nil {
			ex.releaseBuf(1)
		}
	}
	return true
}

// stage builds the complete group's node-level op in ex.op, charging a
// copy for each contribution it packs.
func (ex *collExec) stage(h transport.Proc) bool {
	ns, g := ex.ns, ex.g
	rm := ns.job.rmap
	switch g.members[0].op {
	case opBarrier:
		ex.op.Kind = transport.Barrier
	case opBcast:
		// The root's buffer if the root is resident, otherwise the first
		// arrival's (the paper picks one "at random"; first arrival keeps
		// runs deterministic).
		ex.chosen = g.members[0]
		for _, m := range g.members {
			if m.rank == g.root {
				ex.chosen = m
				break
			}
		}
		ex.op.Kind, ex.op.Root, ex.op.Send = transport.Bcast, rm.Node(g.root), ex.chosen.buf
		ex.n = g.size
	case opGather:
		// Local contributions concatenated in rank order; the root, if
		// resident, is handed the assembled buffer. A resident root without
		// a large enough destination is the call's error (CollOp.Check).
		chunk := g.size
		if ex.i == 0 && !ex.charged {
			ex.bufs[0] = ns.job.pool.Get(ns.localRanks() * chunk)
		}
		for ; ex.i < len(g.members); ex.i++ {
			if chunk > 0 && !ex.chargeStep(h, ns.memcpyTime(chunk)) {
				return false
			}
			copy(ex.bufs[0][ex.i*chunk:], g.members[ex.i].buf)
		}
		ex.op.Kind, ex.op.Root, ex.op.Send, ex.op.Counts = transport.Gatherv, rm.Node(g.root), ex.bufs[0], ns.job.nodeCounts(chunk)
		for _, m := range g.members {
			if m.rank == g.root {
				ex.op.Recv = m.recvBuf
			}
		}
		ex.n = chunk
	case opScatter:
		// The vector scatter from the root's buffer into a node buffer the
		// members' chunks are dispersed from. A resident root without a
		// large enough source is the call's error (CollOp.Check).
		chunk := g.size
		ex.op.Kind, ex.op.Root, ex.op.Counts = transport.Scatterv, rm.Node(g.root), ns.job.nodeCounts(chunk)
		for _, m := range g.members {
			if m.rank == g.root {
				ex.op.Send = m.buf
			}
		}
		ex.bufs[0] = ns.job.pool.Get(ns.localRanks() * chunk)
		ex.op.Recv = ex.bufs[0]
		ex.n = chunk
	case opAlltoall:
		return ex.stageAlltoall(h)
	}
	return true
}

// stageAlltoall implements the paper's general pattern for all-to-all: the
// node concatenates its residents' contributions, one vector all-to-all
// runs per node (Alltoallv, since node populations may differ), and
// per-rank chunks are dispersed locally. Node send buffer: for each
// destination node j, each local member a contributes its chunks addressed
// to node j's ranks (a-major order); ex.i counts the (node, member) copies
// made.
func (ex *collExec) stageAlltoall(h transport.Proc) bool {
	ns, g := ex.ns, ex.g
	rm := ns.job.rmap
	total, local, nodes := rm.Total(), len(g.members), rm.Nodes()
	if ex.op.Kind != transport.Alltoallv {
		if g.size%total != 0 {
			ex.fail(fmt.Errorf("dcgn: alltoall buffer %d not divisible by %d ranks", g.size, total))
			return true
		}
		chunk := g.size / total
		ex.alltoallOp(chunk)
		ex.bufs[0] = ns.job.pool.Get(local * total * chunk)
		ex.op.Send = ex.bufs[0][:0]
		ex.n = chunk
	}
	chunk := ex.n
	for ; ex.i < nodes*local; ex.i++ {
		j, m := ex.i/local, g.members[ex.i%local]
		base := rm.Base(j) * chunk
		span := rm.PerNode(j) * chunk
		if span > 0 && !ex.chargeStep(h, ns.memcpyTime(span)) {
			return false
		}
		ex.op.Send = append(ex.op.Send, m.buf[base:base+span]...)
	}
	ex.bufs[1] = ns.job.pool.Get(local * total * chunk)
	ex.op.Recv = ex.bufs[1]
	return true
}

// poisonOp stages the node-level op of a poisoned group: the kind of its
// members, the root and per-rank size of its first arrival, and zeroed
// pool scratch for every buffer, so the node takes its part in the round
// and moves only zeros.
func (ex *collExec) poisonOp() {
	ns, g := ex.ns, ex.g
	rm := ns.job.rmap
	size, local, total := max(g.size, 0), len(g.members), rm.Total()
	zeroed := func(i, n int) []byte {
		b := ns.job.pool.Get(n)
		clear(b)
		ex.bufs[i] = b
		return b
	}
	root := rm.Node(g.root)
	switch g.members[0].op {
	case opBarrier:
		ex.op.Kind = transport.Barrier
	case opBcast:
		ex.op.Kind, ex.op.Root, ex.op.Send = transport.Bcast, root, zeroed(0, size)
	case opGather:
		ex.op.Kind, ex.op.Root, ex.op.Counts = transport.Gatherv, root, ns.job.nodeCounts(size)
		ex.op.Send = zeroed(0, local*size)
		if root == ns.node {
			ex.op.Recv = zeroed(1, total*size)
		}
	case opScatter:
		ex.op.Kind, ex.op.Root, ex.op.Counts = transport.Scatterv, root, ns.job.nodeCounts(size)
		ex.op.Recv = zeroed(0, local*size)
		if root == ns.node {
			ex.op.Send = zeroed(1, total*size)
		}
	case opAlltoall:
		chunk := size / total
		ex.alltoallOp(chunk)
		ex.op.Send, ex.op.Recv = zeroed(0, local*total*chunk), zeroed(1, local*total*chunk)
	}
}

// alltoallOp makes ex.op the node's all-to-all of chunk bytes per rank
// pair: to and from node j, its ranks' chunks for and from each member.
func (ex *collExec) alltoallOp(chunk int) {
	rm, local := ex.ns.job.rmap, len(ex.g.members)
	ex.op.Kind, ex.op.Counts, ex.op.RecvCounts = transport.Alltoallv, make([]int, rm.Nodes()), make([]int, rm.Nodes())
	for j := range ex.op.Counts {
		ex.op.Counts[j] = local * rm.PerNode(j) * chunk
		ex.op.RecvCounts[j] = rm.PerNode(j) * local * chunk
	}
}

// disperse performs the local result copies of a successful collective:
// a broadcast's and a scatter's charged as one dispersal — sequential
// memcpys (the paper's implementation) or the proposed tree-dispersal time
// (its "future optimization", for the ablation bench) — and an
// all-to-all's chunk by chunk.
func (ex *collExec) disperse(h transport.Proc) bool {
	ns, g := ex.ns, ex.g
	if ex.err != nil {
		return true
	}
	switch g.members[0].op {
	case opBcast, opScatter:
		if k := len(g.members) - 1; k > 0 {
			per := ns.memcpyTime(collPayloadOf(g))
			if ns.job.cfg.Params.TreeDispersal {
				per *= time.Duration(int(math.Ceil(math.Log2(float64(k + 1)))))
			} else {
				per *= time.Duration(k)
			}
			if !ex.chargeStep(h, per) {
				return false
			}
		}
		for i, m := range g.members {
			if g.members[0].op == opScatter {
				copy(m.recvBuf, ex.bufs[0][i*ex.n:(i+1)*ex.n])
			} else if m != ex.chosen {
				copy(m.buf, ex.chosen.buf)
			}
		}
	case opAlltoall:
		// The block from node i is laid out a-major (node i's local ranks),
		// b-minor (our members): member lb's chunk from global rank a sits
		// at (a*local + lb)*chunk, a running over the job's ranks.
		chunk, local := ex.n, len(g.members)
		for ; ex.i < ns.job.rmap.Total()*local; ex.i++ {
			a, m := ex.i/local, g.members[ex.i%local]
			if chunk > 0 && !ex.chargeStep(h, ns.memcpyTime(chunk)) {
				return false
			}
			copy(m.recvBuf[a*chunk:(a+1)*chunk], ex.bufs[1][ex.i*chunk:])
		}
		ex.releaseBuf(1)
	}
	return true
}

// collDone is every collective's tail: with an error, each member fails
// with it; otherwise each is notified, its completion reporting ex.n bytes.
func (ex *collExec) collDone(h transport.Proc) bool {
	g := ex.g
	for ; ex.i < len(g.members); ex.i++ {
		m := g.members[ex.i]
		if ex.err != nil {
			m.complete(g.root, 0, ex.err)
			continue
		}
		if !ex.chargeStep(h, ex.ns.job.cfg.Params.NotifyCost) {
			return false
		}
		m.complete(g.root, ex.n, nil)
	}
	return true
}

// collPayloadLen returns the per-rank payload size of a collective request.
func collPayloadLen(req *request) int {
	switch req.op {
	case opBcast:
		return len(req.buf)
	case opGather:
		return len(req.buf) // contribution size
	case opScatter:
		return len(req.recvBuf) // per-rank chunk size
	case opAlltoall:
		return len(req.buf) // full send buffer (Total * chunk)
	}
	return 0
}

// nodeCounts returns every node's byte count in a gather or scatter of
// chunk bytes per rank. Every node of the job shares the slice and only
// reads it; it is rebuilt only when the chunk size changes.
func (j *Job) nodeCounts(chunk int) []int {
	j.countsMu.Lock()
	defer j.countsMu.Unlock()
	if j.counts == nil || j.countsChunk != chunk {
		counts := make([]int, j.rmap.Nodes())
		for i := range counts {
			counts[i] = j.rmap.PerNode(i) * chunk
		}
		j.counts, j.countsChunk = counts, chunk
	}
	return j.counts
}

// collPayloadOf returns the dispersal copy size for a group.
func collPayloadOf(g *collGroup) int {
	if g.size < 0 {
		return 0
	}
	return g.size
}
