// Package simmpi adapts internal/mpi's simulated ranks to the
// transport.Transport seam: it is the default progress-engine backend,
// playing MVAPICH2's role from the paper ("DCGN uses MPI as its
// underlying communication library", §3.2.2) on the deterministic
// simulated cluster fabric.
//
// There is one way in: a Group — a placement of job-local nodes onto world
// ranks, a tag band and a communicator — hands out one Endpoint per node
// (the shape live.Cluster/live.Group have). A job that owns the whole
// world runs on WorldGroup; a Runtime tenant on NewGroup over the nodes it
// was placed on. Every operation forwards to the endpoint's *mpi.Rank on
// the calling *sim.Proc, so the virtual-time behavior of a job using this
// backend is bit-identical to an engine calling mpi.Rank directly — the
// property the golden determinism suite pins.
//
// An Endpoint's lanes are the transport's step forms over the rank's own:
// SendStep is mpi's SendMsgStep, its progress kept in the caller's
// transport.SendOp, and RecvStep an mpi.RecvOp the endpoint holds for the
// lane's one receiver. A stackless proc advances either a step at a time;
// a stackful caller drives it with Proc.Await, which is what mpi's
// blocking calls are, so both take the same slots of the schedule. A
// step-form send or receive never fails. The collective is the same kind
// of step form, mpi's collective machine.
package simmpi

import (
	"fmt"
	"slices"

	"dcgn/internal/mpi"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// dcgnTag is the MPI tag carrying all DCGN point-to-point wire traffic;
// messages are demultiplexed by the DCGN header, not by MPI matching.
const dcgnTag = 770001

// osTag is the MPI tag carrying the one-sided lane: put/get/ack frames
// demultiplexed by the one-sided header. A distinct tag keeps the lane
// out of the two-sided lane's stream, so one-sided traffic can never
// perturb comm-thread matching order (FIFO independence).
const osTag = 770002

// tenantTagStride separates the tag bands of co-resident tenants: tenant
// (job) i's point-to-point traffic rides dcgnTag + i*tenantTagStride and
// its one-sided lane osTag + i*tenantTagStride. Tenant 0's tags are
// exactly dcgnTag and osTag. The stride leaves room for more per-tenant
// lanes without re-banding.
const tenantTagStride = 16

// Group is one job's view of a simulated-MPI world: a placement (job-local
// node -> world rank) and the two things that isolate the job on ranks it
// shares, at once or in turn, with others. Its two lanes ride a tag band
// derived from the job's id, which no other job has; its node-level
// collectives run on a communicator over exactly the placed ranks whose
// context is this group's alone (mpi.NewGroupComm: a fresh one per call,
// whatever the members). So endpoints drawn from a Group carry only that
// job's frames — a co-resident job cannot match them, nor can a successor
// on the same nodes match what a canceled job left in flight. They count
// nothing: wire totals are the fabric's per-node counters.
type Group struct {
	comm      *mpi.Comm
	placement []int
	p2pTag    int
	osTag     int
	eps       []Endpoint
}

// WorldGroup is the group of a job that owns the whole world: tenant 0 on
// the world communicator, every node on the rank of the same number.
func WorldGroup(w *mpi.World) *Group {
	g := &Group{comm: w.Comm(), placement: make([]int, w.Size())}
	for n := range g.placement {
		g.placement[n] = n
	}
	g.setBand(0)
	g.setEndpoints(w)
	return g
}

// NewGroup builds tenant id's group over the given placement (strictly
// ascending world ranks; tenant-local node i runs on world rank
// placement[i]), on a group communicator of its own. Tenant 0 with the
// identity placement moves the same bytes at the same virtual times as
// WorldGroup (TestWorldGroupMatchesTenantZero).
func NewGroup(w *mpi.World, placement []int, tenant int) *Group {
	g := new(Group)
	g.Reset(w, placement, tenant)
	return g
}

// Reset makes g the group NewGroup(w, placement, tenant) builds, on g's
// storage: a group whose job has retired (Retire) and whose procs are gone
// takes the next tenant on, its communicator renewed in a fresh context
// (mpi.Comm.Renew), its tags the new tenant's band and its endpoints,
// their receives included, made again.
func (g *Group) Reset(w *mpi.World, placement []int, tenant int) {
	if tenant < 0 {
		panic("simmpi: negative tenant id")
	}
	g.placement = append(g.placement[:0], placement...)
	g.setBand(tenant)
	if g.comm == nil {
		g.comm = w.NewGroupComm(g.placement, g.p2pTag, g.osTag)
	} else {
		g.comm.Renew(g.placement, g.p2pTag, g.osTag)
	}
	g.setEndpoints(w)
}

// setBand gives g tenant's tags.
func (g *Group) setBand(tenant int) {
	g.p2pTag, g.osTag = dcgnTag+tenant*tenantTagStride, osTag+tenant*tenantTagStride
}

// setEndpoints makes g's endpoints, one per placed node, new.
func (g *Group) setEndpoints(w *mpi.World) {
	g.eps = slices.Grow(g.eps[:0], len(g.placement))[:len(g.placement)]
	for n, rank := range g.placement {
		g.eps[n] = Endpoint{g: g, rank: w.Rank(rank)}
	}
}

// New wraps one underlying MPI rank as its node's endpoint in the world
// group.
func New(rank *mpi.Rank) *Endpoint { return WorldGroup(rank.World()).Endpoint(rank.ID()) }

// Retire ends the group's traffic once its job has finished: its tag band
// and collective context are purged from its ranks' unexpected queues, and
// a frame of theirs still on the wire dies on arrival (mpi.Comm.Retire),
// counted by dropped. The group carries nothing after.
func (g *Group) Retire(dropped interface{ Add(int64) }) { g.comm.Retire(dropped) }

// Endpoint returns the job-local node's transport endpoint.
func (g *Group) Endpoint(local int) *Endpoint { return &g.eps[local] }

// Endpoint is one job-local node's simulated-MPI endpoint. Destinations
// and collective roots are in job-local node space; the group
// communicator's ranks coincide with job-local nodes (both are the
// placement's ascending order), so roots and counts need no translation.
type Endpoint struct {
	g    *Group
	rank *mpi.Rank
	// rx is each lane's receive (two-sided, one-sided), reused from one
	// frame to the next by the lane's one receiver.
	rx [2]mpi.RecvOp
}

// proc recovers the simulated proc a transport call runs under.
func proc(p transport.Proc) *sim.Proc {
	sp, ok := p.(*sim.Proc)
	if !ok {
		panic(fmt.Sprintf("simmpi: call on non-simulated proc %T", p))
	}
	return sp
}

// lane returns the endpoint's receive of a lane and the group's tag for it.
func (e *Endpoint) lane(oneSided bool) (*mpi.RecvOp, int) {
	if oneSided {
		return &e.rx[1], e.g.osTag
	}
	return &e.rx[0], e.g.p2pTag
}

// SendStep puts each frame of op on the wire to its job-local node as
// mpi's SendMsgStep on the lane's tag, handing the frame itself to the
// underlying MPI (a take-ownership send: no eager copy, no rendezvous
// snapshot); the receiving endpoint's RecvStep hands the same buffer on.
func (e *Endpoint) SendStep(p transport.Proc, op *transport.SendOp) (bool, error) {
	sp := proc(p)
	_, tag := e.lane(op.OneSided)
	for e.rank.SendMsgStep(sp, (*mpi.SendOp)(&op.Wire), op.Msg, e.g.placement[op.Dst], tag) {
		if !op.Next() {
			return true, nil
		}
	}
	return false, nil
}

// RecvStep receives the lane's next frame from any source as an
// mpi.RecvMsgOp, taking ownership of the underlying MPI's pooled staging
// buffer (zero-copy relay). The two lanes' receives run concurrently on
// the same rank: they are disjoint by tag.
func (e *Endpoint) RecvStep(p transport.Proc, op *transport.RecvOp) (bool, error) {
	rx, tag := e.lane(op.OneSided)
	if op.Posted == nil {
		*rx = e.rank.RecvMsgOp(mpi.AnySource, tag)
		op.Posted = rx
	}
	if !rx.Step(proc(p)) {
		return false, nil
	}
	_, op.Msg, _ = rx.Result()
	return true, nil
}

// Send and RecvMsg are the blocking two-sided calls for a caller that
// drives an endpoint directly rather than through the Transport interface
// (the repository benchmark's transport ladder): mpi's own blocking calls
// on the point-to-point tag. RecvMsg is that lane's receiver.

// Send transmits msg to dstNode and takes ownership of it.
func (e *Endpoint) Send(p transport.Proc, dstNode int, msg []byte) error {
	return e.rank.SendMsg(proc(p), msg, e.g.placement[dstNode], e.g.p2pTag)
}

// RecvMsg blocks for the next inbound frame and hands its buffer over.
func (e *Endpoint) RecvMsg(p transport.Proc) ([]byte, error) {
	_, msg, err := e.rank.RecvMsg(proc(p), mpi.AnySource, e.g.p2pTag)
	return msg, err
}

// CollectiveStep runs op on the group communicator once it passes Check:
// mpi's collective step machine (mpi.Coll), which charges the call's costs
// and which the op keeps as its Wire from one collective to the next. A
// node whose op fails Check returns its error without joining.
func (e *Endpoint) CollectiveStep(p transport.Proc, op *transport.CollOp) (bool, error) {
	m, _ := op.Wire.(*mpi.Coll)
	if m == nil || !m.Started() {
		c := e.g.comm
		if err := op.Check(c.Size(), c.RankOf(e.rank)); err != nil {
			return true, err
		}
		if m == nil {
			m = new(mpi.Coll)
			op.Wire = m
		}
		// transport.CollKind and mpi.CollKind name the kinds in one order.
		m.Start(c, e.rank, mpi.CollKind(op.Kind), op.Root, op.Send, op.Recv, op.Counts, op.RecvCounts)
	}
	return m.Step(proc(p))
}

// Close does nothing and wakes no one: a simulated endpoint has no state of
// its own to shut, and a proc waiting in a RecvStep ends when the simulator
// kills it — with its tenant's proc group (sim.Group) when a Runtime
// retires or cancels the job, with everything else when the run ends —
// unposting its receive from the rank through its RecvOp's Drop. The world
// underneath is shared and outlives every tenant.
func (e *Endpoint) Close() error { return nil }
