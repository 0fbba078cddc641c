package core

import (
	"fmt"
	"time"

	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// CPUCtx is the host-side DCGN API available inside CPU kernels (the
// paper's dcgn namespace: dcgn::send, dcgn::recv, dcgn::getRank, ...).
// Every call relays a request to the node's communication thread through
// the thread-safe work queue and blocks until completion — CPU kernels
// never touch MPI directly (paper §3.2.4: "developers are not allowed to
// directly call MPI functions").
//
// A CPUCtx is spent when its kernel returns: a simulated Runtime gives it,
// with its spent AsyncOps, to a later tenant's kernel on the same node, so
// nothing may use it after.
type CPUCtx struct {
	job  *Job
	ns   *nodeState
	tp   transport.Proc
	rank int
	// req is the request of every blocking call, made again for each: the
	// kernel thread makes one call at a time and the call ends with its
	// request's life.
	req simRequest
	// ops holds the kernel's spent AsyncOps: ISend and IRecv take one, its
	// Wait gives it back.
	ops sim.FreeList[simRequest]
	// next links the node's kernel contexts (nodeState.kernels).
	next *CPUCtx
}

// run is the kernel thread's body on tp: the job's CPU kernel, with an
// AsyncOp list kept under the node's simulator on the simulated backend.
func (c *CPUCtx) run(tp transport.Proc) {
	c.tp = tp
	if c.ns.sim != nil {
		c.ops.Init(c.ns.sim, "async-op", 64)
	}
	c.job.cpuKernel(c)
}

// Rank returns this kernel thread's virtual rank (dcgn::getRank).
func (c *CPUCtx) Rank() int { return c.rank }

// Size returns the total number of virtual ranks in the job.
func (c *CPUCtx) Size() int { return c.job.rmap.Total() }

// Node returns the node index this kernel runs on.
func (c *CPUCtx) Node() int { return c.ns.node }

// Proc exposes the simulated proc, for explicit compute-cost charging;
// it is nil on the live backend, where kernels run on real goroutines
// (use Compute, which is substrate-neutral, instead).
func (c *CPUCtx) Proc() *sim.Proc {
	sp, _ := c.tp.(*sim.Proc)
	return sp
}

// Now returns the current virtual time.
func (c *CPUCtx) Now() time.Duration { return c.tp.Now() }

// Compute charges d of CPU work to this kernel.
func (c *CPUCtx) Compute(d time.Duration) { c.ns.charge(c.tp, d) }

// Send transmits buf to rank dst, blocking until the communication thread
// reports completion (local: matched+copied; remote: underlying MPI send
// complete).
func (c *CPUCtx) Send(dst int, buf []byte) error {
	req := c.relay(opSend, dst, 0, buf, nil)
	return req.err
}

// Recv receives into buf from rank src (or AnySource) and reports the
// delivery status.
func (c *CPUCtx) Recv(src int, buf []byte) (CommStatus, error) {
	req := c.relay(opRecv, src, 0, buf, nil)
	return req.status, req.err
}

// SendRecv posts a send of sendBuf to dst and a receive from src (or
// AnySource) into recvBuf as one combined request — the exchange primitive
// Cannon's algorithm rotates chunks with (§5.1).
func (c *CPUCtx) SendRecv(dst int, sendBuf []byte, src int, recvBuf []byte) (CommStatus, error) {
	req := c.relay(opSendrecv, dst, src, sendBuf, recvBuf)
	return req.status, req.err
}

// SendRecvReplace exchanges buf with a partner in place.
func (c *CPUCtx) SendRecvReplace(dst, src int, buf []byte) (CommStatus, error) {
	tmp := c.job.pool.Get(len(buf))
	defer c.job.pool.Put(tmp)
	st, err := c.SendRecv(dst, buf, src, tmp)
	if err != nil {
		return st, err
	}
	copy(buf, tmp[:st.Bytes])
	return st, nil
}

// Barrier blocks until every rank in the job has entered the barrier.
func (c *CPUCtx) Barrier() {
	req := c.relay(opBarrier, 0, 0, nil, nil)
	if req.err != nil {
		panic(fmt.Sprintf("dcgn: barrier: %v", req.err))
	}
}

// Bcast joins a broadcast rooted at rank root; buf supplies the payload at
// the root and receives it elsewhere. All ranks must pass equal-length
// buffers.
func (c *CPUCtx) Bcast(root int, buf []byte) error {
	req := c.relay(opBcast, root, 0, buf, nil)
	return req.err
}

// Gather contributes send to a gather rooted at rank root; at the root,
// recv receives Size()*len(send) bytes in rank order (recv may be nil
// elsewhere).
func (c *CPUCtx) Gather(root int, send, recv []byte) error {
	req := c.relay(opGather, root, 0, send, recv)
	return req.err
}

// Scatter receives this rank's chunk into recv from a scatter rooted at
// rank root; at the root, send supplies Size()*len(recv) bytes in rank
// order (send may be nil elsewhere).
func (c *CPUCtx) Scatter(root int, send, recv []byte) error {
	req := c.relay(opScatter, root, 0, send, recv)
	return req.err
}

// AllToAll exchanges chunk j of this rank's send buffer into position
// Rank() of rank j's recv buffer; both buffers are Size()*chunk bytes with
// chunks packed in rank order. Implemented with the paper's general
// collective pattern (§3.2.3). Buffers of unequal length fail the
// collective on every rank of this node.
func (c *CPUCtx) AllToAll(send, recv []byte) error {
	req := c.relay(opAlltoall, 0, 0, send, recv)
	return req.err
}

// AsyncOp is a handle to a nonblocking DCGN operation started with ISend
// or IRecv (the "asynchronous sends and receives" §5.1 mentions users
// would otherwise manage manually). It is the request itself, so starting
// one allocates no handle. Like an MPI request, it is spent once Wait
// returns: Wait gives it back to its kernel, whose next ISend or IRecv may
// return it again, so nothing may use it after. An op that is never
// waited for is left to the garbage collector.
type AsyncOp simRequest

// Wait blocks until the operation completes, reports its status and ends
// the op's life.
func (a *AsyncOp) Wait(c *CPUCtx) (CommStatus, error) {
	a.done.Wait(c.tp)
	st, err := a.status, a.err
	c.ops.Put((*simRequest)(a))
	return st, err
}

// Test reports whether the operation has completed, without blocking. It
// does not end the op's life: an op Test found complete is still waited
// for, and spent by that Wait.
func (a *AsyncOp) Test() (CommStatus, bool) {
	if !a.done.Fired() {
		return CommStatus{}, false
	}
	return a.status, true
}

// ISend starts a nonblocking send. The buffer must not be modified until
// Wait reports completion; the op is spent once Wait returns.
func (c *CPUCtx) ISend(dst int, buf []byte) *AsyncOp {
	a := c.ops.Get()
	c.post(a.reset(c.ns, "cpu-areq", c.rank), opSend, dst, 0, buf, nil)
	return (*AsyncOp)(a)
}

// IRecv starts a nonblocking receive into buf from src (or AnySource);
// the op is spent once Wait returns.
func (c *CPUCtx) IRecv(src int, buf []byte) *AsyncOp {
	a := c.ops.Get()
	c.post(a.reset(c.ns, "cpu-areq", c.rank), opRecv, src, 0, buf, nil)
	return (*AsyncOp)(a)
}

// post charges the enqueue cost and hands req, filled in, to the comm
// thread's queue without waiting for it. peer2 is the receive side of a
// combined send/receive and zero otherwise. A request that names a rank
// outside the job is completed with ErrBadRank instead, at once and at no
// cost.
func (c *CPUCtx) post(req *request, op opKind, peer, peer2 int, buf, recvBuf []byte) *request {
	req.op, req.rank, req.peer, req.peer2, req.buf, req.recvBuf = op, c.rank, peer, peer2, buf, recvBuf
	if err := c.job.rmap.checkPeers(op, peer, peer2); err != nil {
		req.complete(0, 0, err)
		return req
	}
	c.ns.charge(c.tp, c.job.cfg.Params.EnqueueCost)
	c.job.trace.record(c.ns.rt, req)
	c.ns.intake.postRequest(req)
	return req
}

// relay posts the kernel's one blocking request into the comm thread's
// queue and blocks on its completion event.
func (c *CPUCtx) relay(op opKind, peer, peer2 int, buf, recvBuf []byte) *request {
	req := c.post(c.req.reset(c.ns, "cpu-req", c.rank), op, peer, peer2, buf, recvBuf)
	req.done.Wait(c.tp)
	return req
}
