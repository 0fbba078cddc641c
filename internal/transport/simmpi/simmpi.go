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
// An Endpoint's two lanes also have step forms (Stepper): Send and RecvMsg,
// and their one-sided twins, as ops a stackless proc advances a step at a
// time (SendOp, RecvOp), over the rank's mpi.SendOp and mpi.RecvOp. The
// blocking calls are those ops driven by Step and Await, so a caller on
// either form takes the same slots of the schedule. A middleware forwards
// the forms by implementing them too (Steps).
package simmpi

import (
	"fmt"

	"dcgn/internal/mpi"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// dcgnTag is the MPI tag carrying all DCGN point-to-point wire traffic;
// messages are demultiplexed by the DCGN header, not by MPI matching.
const dcgnTag = 770001

// osTag is the MPI tag carrying the one-sided lane: put/get/ack frames
// demultiplexed by the one-sided header. A distinct tag keeps the lane
// out of the two-sided RecvMsg stream, so one-sided traffic can never
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
	placement := make([]int, w.Size())
	for n := range placement {
		placement[n] = n
	}
	return newGroup(w, w.Comm(), placement, 0)
}

// NewGroup builds tenant id's group over the given placement (strictly
// ascending world ranks; tenant-local node i runs on world rank
// placement[i]), on a group communicator of its own. Tenant 0 with the
// identity placement moves the same bytes at the same virtual times as
// WorldGroup (TestWorldGroupMatchesTenantZero).
func NewGroup(w *mpi.World, placement []int, tenant int) *Group {
	if tenant < 0 {
		panic("simmpi: negative tenant id")
	}
	return newGroup(w, w.NewGroupComm(placement), append([]int(nil), placement...), tenant)
}

func newGroup(w *mpi.World, comm *mpi.Comm, placement []int, tenant int) *Group {
	g := &Group{
		comm:      comm,
		placement: placement,
		p2pTag:    dcgnTag + tenant*tenantTagStride,
		osTag:     osTag + tenant*tenantTagStride,
		eps:       make([]Endpoint, len(placement)),
	}
	for n, rank := range placement {
		g.eps[n] = Endpoint{g: g, rank: w.Rank(rank)}
	}
	return g
}

// New wraps one underlying MPI rank as its node's endpoint in the world
// group.
func New(rank *mpi.Rank) *Endpoint { return WorldGroup(rank.World()).Endpoint(rank.ID()) }

// Endpoint returns the job-local node's transport endpoint.
func (g *Group) Endpoint(local int) *Endpoint { return &g.eps[local] }

// Endpoint is one job-local node's simulated-MPI endpoint. Destinations
// and collective roots are in job-local node space; the group
// communicator's ranks coincide with job-local nodes (both are the
// placement's ascending order), so roots and counts need no translation.
type Endpoint struct {
	g    *Group
	rank *mpi.Rank
}

// proc recovers the simulated proc a transport call runs under.
func proc(p transport.Proc) *sim.Proc {
	sp, ok := p.(*sim.Proc)
	if !ok {
		panic(fmt.Sprintf("simmpi: call on non-simulated proc %T", p))
	}
	return sp
}

// send transmits one frame to job-local dstNode on the given tag, handing
// the frame itself to the underlying MPI (a take-ownership send: no eager
// copy, no rendezvous snapshot); the receiving endpoint's recv hands the
// same buffer on.
func (e *Endpoint) send(p transport.Proc, dstNode, tag int, frame []byte) error {
	return e.rank.SendMsg(proc(p), frame, e.g.placement[dstNode], tag)
}

// recv blocks for the next inbound frame on the given tag, taking
// ownership of the underlying MPI's pooled staging buffer (zero-copy
// relay).
func (e *Endpoint) recv(p transport.Proc, tag int) ([]byte, error) {
	_, frame, err := e.rank.RecvMsg(proc(p), mpi.AnySource, tag)
	return frame, err
}

// Send transmits one framed wire message to dstNode on the group's
// point-to-point tag.
func (e *Endpoint) Send(p transport.Proc, dstNode int, msg []byte) error {
	return e.send(p, dstNode, e.g.p2pTag, msg)
}

// RecvMsg blocks for the next inbound wire message on the group's
// point-to-point tag.
func (e *Endpoint) RecvMsg(p transport.Proc) ([]byte, error) { return e.recv(p, e.g.p2pTag) }

// SendOneSided transmits one framed one-sided message to dstNode on the
// group's one-sided tag.
func (e *Endpoint) SendOneSided(p transport.Proc, dstNode int, frame []byte) error {
	return e.send(p, dstNode, e.g.osTag, frame)
}

// RecvOneSided blocks for the next inbound one-sided frame. It runs
// concurrently with RecvMsg on the same rank: the two posted receives are
// disjoint by tag.
func (e *Endpoint) RecvOneSided(p transport.Proc) ([]byte, error) { return e.recv(p, e.g.osTag) }

// Barrier runs the group-wide node-level barrier.
func (e *Endpoint) Barrier(p transport.Proc) error {
	e.g.comm.Barrier(proc(p), e.rank)
	return nil
}

// Bcast runs the group-wide broadcast from rootNode.
func (e *Endpoint) Bcast(p transport.Proc, buf []byte, rootNode int) error {
	return e.g.comm.Bcast(proc(p), e.rank, buf, rootNode)
}

// Gatherv runs the group-wide vector gather to rootNode.
func (e *Endpoint) Gatherv(p transport.Proc, sendBuf, recvBuf []byte, counts []int, rootNode int) error {
	return e.g.comm.Gatherv(proc(p), e.rank, sendBuf, recvBuf, counts, rootNode)
}

// Scatterv runs the group-wide vector scatter from rootNode.
func (e *Endpoint) Scatterv(p transport.Proc, sendBuf []byte, counts []int, recvBuf []byte, rootNode int) error {
	return e.g.comm.Scatterv(proc(p), e.rank, sendBuf, counts, recvBuf, rootNode)
}

// Alltoallv runs the group-wide vector all-to-all.
func (e *Endpoint) Alltoallv(p transport.Proc, sendBuf []byte, sendCounts []int, recvBuf []byte, recvCounts []int) error {
	return e.g.comm.Alltoallv(proc(p), e.rank, sendBuf, sendCounts, recvBuf, recvCounts)
}

// Stepper is an endpoint with step forms of its lanes' sends and receives.
// Each advances its op on p and reports whether the op is complete; if it
// is not, it has registered p's next wake, after which the caller calls it
// again with the same op. A step-form send or receive cannot fail.
type Stepper interface {
	SendStep(p *sim.Proc, op *SendOp) bool
	RecvStep(p *sim.Proc, op *RecvOp) bool
}

// Steps returns tr's step forms, nil when it has none: an Endpoint has
// them, and a middleware that forwards them (faults) has them when what it
// wraps has. A transport that only embeds another hides them.
func Steps(tr transport.Transport) Stepper {
	if s, ok := tr.(interface{ Steps() Stepper }); ok {
		return s.Steps()
	}
	return nil
}

// Steps returns the endpoint itself: it has the step forms.
func (e *Endpoint) Steps() Stepper { return e }

// SendOp is one step-form send (SendStep) in progress: a frame (Msg,
// whose buffer the transport owns from the op's first step) to its
// job-local node, on the point-to-point lane or the one-sided one, then
// whatever a middleware queued behind it (Then), each put on the wire once
// the one before it is. Dst and Msg are the frame being sent: the op's
// own, until a queued one's turn.
type SendOp struct {
	Dst      int
	Msg      []byte
	OneSided bool
	// Mid is a middleware's own progress through the op; the endpoint
	// never reads it.
	Mid  uint8
	wire mpi.SendOp
	then *SendOp
}

// Then queues a send of msg to dstNode, on the op's lane, behind the op's
// own frame and whatever was queued before it. Call it before the op's
// first step.
func (op *SendOp) Then(dstNode int, msg []byte) {
	for ; op.then != nil; op = op.then {
	}
	op.then = &SendOp{Dst: dstNode, Msg: msg}
}

// RecvOp is one step-form receive (RecvStep) of the next frame on a lane,
// reused from one frame to the next (Take).
type RecvOp struct {
	OneSided bool
	started  bool
	// Mid is a middleware's own progress through the op; the endpoint
	// never reads it.
	Mid  uint8
	wire mpi.RecvOp
}

// Take returns the frame a completed op received, whose buffer now belongs
// to the caller, and readies the op for the next receive.
func (op *RecvOp) Take() []byte {
	_, msg, _ := op.wire.Result()
	op.started, op.Mid = false, 0
	return msg
}

// Drop takes the op's receive off the rank's posted list unless it has
// completed: what a proc that ends with the op unfinished must do.
func (op *RecvOp) Drop() {
	if op.started {
		op.wire.Drop()
	}
}

// tag returns the group's tag for a lane.
func (g *Group) tag(oneSided bool) int {
	if oneSided {
		return g.osTag
	}
	return g.p2pTag
}

// SendStep is the step form of Send and SendOneSided: each frame of op
// goes out as mpi's SendMsgStep.
func (e *Endpoint) SendStep(p *sim.Proc, op *SendOp) bool {
	for e.rank.SendMsgStep(p, &op.wire, op.Msg, e.g.placement[op.Dst], e.g.tag(op.OneSided)) {
		next := op.then
		if next == nil {
			return true
		}
		op.Dst, op.Msg, op.wire, op.then = next.Dst, next.Msg, mpi.SendOp{}, next.then
	}
	return false
}

// RecvStep is the step form of RecvMsg and RecvOneSided: mpi's RecvMsgOp
// from any source on the lane's tag.
func (e *Endpoint) RecvStep(p *sim.Proc, op *RecvOp) bool {
	if !op.started {
		op.wire = e.rank.RecvMsgOp(mpi.AnySource, e.g.tag(op.OneSided))
		op.started = true
	}
	return op.wire.Step(p)
}

// Close does nothing and wakes no one: a simulated endpoint has no state of
// its own to shut, and a proc blocked in its RecvMsg or RecvOneSided ends
// when the simulator kills it — with its tenant's proc group (sim.Group)
// when a Runtime retires or cancels the job, with everything else when the
// run ends — unposting its receive from the rank as it unwinds, or, a
// stackless receiver, through its RecvOp's Drop. The world underneath is
// shared and outlives every tenant.
func (e *Endpoint) Close() error { return nil }
