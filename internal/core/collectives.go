package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"dcgn/internal/transport"
)

// collRetries bounds re-executions of a node-level collective that failed
// with transport.ErrTransient. Transient failures are cluster-consistent
// (every node's middleware fails the same round — see internal/transport/
// faults), so all nodes retry in lockstep and the rendezvous stays intact.
const collRetries = 16

// collCall runs one node-level collective transport call, retrying
// transient injected failures with the reliability layer's backoff
// schedule (charged as comm-thread time; the comm thread already blocks
// for the duration of a collective). Non-transient errors surface
// immediately.
func (ns *nodeState) collCall(p transport.Proc, op *transport.CollOp) error {
	var err error
	for attempt := 0; attempt <= collRetries; attempt++ {
		if attempt > 0 {
			atomic.AddInt64(&ns.collRetried, 1)
			ns.charge(p, relBackoff(ns.job.cfg.Reliability, attempt-1))
		}
		if err = ns.tr.Collective(p, op); err == nil || !errors.Is(err, transport.ErrTransient) {
			return err
		}
	}
	return err
}

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
	// op is the node-level call the group makes once complete.
	op transport.CollOp
}

// collAccum is the progress engine's collective-accumulation layer, owned
// by one comm thread: it gathers local arrivals for each collective until
// every resident rank has joined, then executes one node-level transport
// call and disperses the results locally (paper §3.2.3).
type collAccum struct {
	ns     *nodeState
	groups map[opKind]*collGroup
}

func newCollAccum(ns *nodeState) *collAccum {
	return &collAccum{ns: ns, groups: make(map[opKind]*collGroup)}
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
// collective, the underlying transport collective runs and results are
// dispersed locally (paper §3.2.3). Arrivals that disagree on the root or
// payload size poison the group rather than panicking or hanging: the
// group still waits for all residents (so nobody blocks forever on a
// missing member), then every member completes with the mismatch error.
func (ca *collAccum) add(p transport.Proc, req *request) {
	ns := ca.ns
	g := ca.groups[req.op]
	if g == nil {
		g = &collGroup{root: req.peer, size: -1, firstAt: p.Now(), members: make([]*request, 0, ns.localRanks())}
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
	if g.err != nil {
		ns.collDone(p, g, 0, g.err)
		return
	}
	switch req.op {
	case opBarrier: // the group's zero op is a barrier
		ns.collDone(p, g, 0, ns.collCall(p, &g.op))
	case opBcast:
		ns.execBcast(p, g)
	case opGather:
		ns.execGather(p, g)
	case opScatter:
		ns.execScatter(p, g)
	case opAlltoall:
		ns.execAlltoall(p, g)
	}
}

// collDone is every collective's tail: with err, each member fails with
// it; otherwise each is notified, its completion reporting n bytes.
func (ns *nodeState) collDone(p transport.Proc, g *collGroup, n int, err error) {
	for _, m := range g.members {
		if err != nil {
			m.complete(g.root, 0, err)
			continue
		}
		ns.charge(p, ns.job.cfg.Params.NotifyCost)
		m.complete(g.root, n, nil)
	}
}

// The exec functions stage a complete group's node-level call in g.op, make
// it (collCall), disperse its results locally once it succeeds, and end in
// collDone.

// execAlltoall implements the paper's general pattern for all-to-all: the
// node concatenates its residents' contributions, one vector all-to-all
// runs per node (Alltoallv, since node populations may differ), and
// per-rank chunks are dispersed locally.
func (ns *nodeState) execAlltoall(p transport.Proc, g *collGroup) {
	rm := ns.job.rmap
	total := rm.Total()
	local := len(g.members)
	if g.size%total != 0 {
		ns.collDone(p, g, 0, fmt.Errorf("dcgn: alltoall buffer %d not divisible by %d ranks", g.size, total))
		return
	}
	chunk := g.size / total
	nodes := rm.Nodes()

	// Node send buffer: for each destination node j, each local member a
	// contributes its chunks addressed to node j's ranks (a-major order).
	sendCounts := make([]int, nodes)
	recvCounts := make([]int, nodes)
	for j := 0; j < nodes; j++ {
		sendCounts[j] = local * rm.PerNode(j) * chunk
		recvCounts[j] = rm.PerNode(j) * local * chunk
	}
	scratch := ns.job.pool.Get(local * total * chunk)
	sendBuf := scratch[:0]
	for j := 0; j < nodes; j++ {
		base := rm.Base(j) * chunk
		span := rm.PerNode(j) * chunk
		for _, m := range g.members {
			ns.chargeMemcpy(p, span)
			sendBuf = append(sendBuf, m.buf[base:base+span]...)
		}
	}
	recvBuf := ns.job.pool.Get(local * total * chunk)
	g.op = transport.CollOp{Kind: transport.Alltoallv, Send: sendBuf, Counts: sendCounts, Recv: recvBuf, RecvCounts: recvCounts}
	err := ns.collCall(p, &g.op)
	ns.job.pool.Put(scratch)
	if err != nil {
		ns.job.pool.Put(recvBuf)
		ns.collDone(p, g, 0, err)
		return
	}
	// Disperse: the block from node i is laid out a-major (node i's local
	// ranks), b-minor (our members); member lb's chunk from global rank a
	// sits at displ(i) + (la*local + lb)*chunk.
	displ := 0
	for i := 0; i < nodes; i++ {
		for la := 0; la < rm.PerNode(i); la++ {
			a := rm.Base(i) + la
			for lb, m := range g.members {
				src := recvBuf[displ+(la*local+lb)*chunk:]
				ns.chargeMemcpy(p, chunk)
				copy(m.recvBuf[a*chunk:(a+1)*chunk], src[:chunk])
			}
		}
		displ += recvCounts[i]
	}
	ns.job.pool.Put(recvBuf)
	ns.collDone(p, g, chunk, nil)
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

// execBcast runs the node-level broadcast using the root's buffer if the
// root is resident, otherwise the first arrival's buffer (the paper picks
// one "at random"; first arrival keeps runs deterministic), then copies
// into all other local buffers.
func (ns *nodeState) execBcast(p transport.Proc, g *collGroup) {
	chosen := g.members[0]
	for _, m := range g.members {
		if m.rank == g.root {
			chosen = m
			break
		}
	}
	g.op = transport.CollOp{Kind: transport.Bcast, Root: ns.job.rmap.Node(g.root), Send: chosen.buf}
	err := ns.collCall(p, &g.op)
	if err == nil {
		ns.disperse(p, g, func(m *request) {
			if m != chosen {
				copy(m.buf, chosen.buf)
			}
		})
	}
	ns.collDone(p, g, g.size, err)
}

// execGather concatenates local contributions in rank order, runs the
// vector gather (per-node counts differ only in heterogeneous setups, but
// the vector variant is what the paper prescribes), and hands the root its
// assembled buffer. A resident root without a large enough destination is
// the call's error (CollOp.Check).
func (ns *nodeState) execGather(p transport.Proc, g *collGroup) {
	chunk := g.size
	nodeBuf := ns.job.pool.Get(ns.localRanks() * chunk)
	defer ns.job.pool.Put(nodeBuf)
	for i, m := range g.members {
		ns.chargeMemcpy(p, chunk)
		copy(nodeBuf[i*chunk:], m.buf)
	}
	g.op = transport.CollOp{Kind: transport.Gatherv, Root: ns.job.rmap.Node(g.root), Send: nodeBuf, Counts: ns.job.nodeCounts(chunk)}
	for _, m := range g.members {
		if m.rank == g.root {
			g.op.Recv = m.recvBuf
		}
	}
	ns.collDone(p, g, chunk, ns.collCall(p, &g.op))
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

// execScatter runs the vector scatter from the root's buffer and disperses
// per-rank chunks locally. A resident root without a large enough source is
// the call's error (CollOp.Check).
func (ns *nodeState) execScatter(p transport.Proc, g *collGroup) {
	chunk := g.size
	g.op = transport.CollOp{Kind: transport.Scatterv, Root: ns.job.rmap.Node(g.root), Counts: ns.job.nodeCounts(chunk)}
	for _, m := range g.members {
		if m.rank == g.root {
			g.op.Send = m.buf
		}
	}
	nodeBuf := ns.job.pool.Get(ns.localRanks() * chunk)
	defer ns.job.pool.Put(nodeBuf)
	g.op.Recv = nodeBuf
	err := ns.collCall(p, &g.op)
	if err == nil {
		ns.disperse(p, g, func(m *request) {
			i := sort.Search(len(g.members), func(j int) bool { return g.members[j].rank >= m.rank })
			copy(m.recvBuf, nodeBuf[i*chunk:(i+1)*chunk])
		})
	}
	ns.collDone(p, g, chunk, err)
}

// disperse performs the local result copies for a collective, charging
// either sequential memcpys (the paper's implementation) or the proposed
// tree-dispersal time (its "future optimization", for the ablation bench).
func (ns *nodeState) disperse(p transport.Proc, g *collGroup, cp func(m *request)) {
	k := len(g.members) - 1 // copies needed
	if k <= 0 {
		for _, m := range g.members {
			cp(m)
		}
		return
	}
	per := time.Duration(float64(collPayloadOf(g)) / ns.job.cfg.Params.LocalMemcpyBW * 1e9)
	if ns.job.cfg.Params.TreeDispersal {
		rounds := int(math.Ceil(math.Log2(float64(k + 1))))
		ns.charge(p, time.Duration(rounds)*per)
	} else {
		ns.charge(p, time.Duration(k)*per)
	}
	for _, m := range g.members {
		cp(m)
	}
}

// collPayloadOf returns the dispersal copy size for a group.
func collPayloadOf(g *collGroup) int {
	if g.size < 0 {
		return 0
	}
	return g.size
}
