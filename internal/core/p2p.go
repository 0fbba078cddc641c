package core

import (
	"time"

	"dcgn/internal/obs"
	"dcgn/internal/transport"
)

// Point-to-point handling: the comm thread matches local traffic with
// memcpy instead of MPI (paper §6.2) and relays remote traffic through
// the transport. All matching state lives in ns.index (the matcher).

// handleSendrecv splits a combined exchange into its send and receive
// halves and completes the parent when both finish (sendrecvJoin). The
// split happens inside the comm thread, so a GPU-sourced exchange costs a
// single mailbox round trip — the optimization §5.1 credits for Cannon's
// performance.
func (ns *nodeState) handleSendrecv(p transport.Proc, req *request) {
	rt := ns.rt
	j := &sendrecvJoin{parent: req}
	j.send = request{
		op: opSend, rank: req.rank, peer: req.peer, buf: req.buf,
		done: rt.NewEventID("srv-send", req.rank), ns: ns, gpu: req.gpu, sendFrame: req.sendFrame,
	}
	j.recv = request{
		op: opRecv, rank: req.rank, peer: req.peer2, buf: req.recvBuf,
		done: rt.NewEventID("srv-recv", req.rank), ns: ns, gpu: req.gpu,
	}
	if ns.flowsOn {
		// The outgoing half carries the parent exchange's flow context; the
		// parent itself inherits whatever flow the matched inbound half
		// joins it to (copied back in the join).
		j.send.traceID = req.traceID
		j.send.spanID = req.spanID
	}
	ns.handleRecv(p, &j.recv)
	ns.handleSend(p, &j.send)
	rt.SpawnStep("dcgn-sendrecv-join", req.rank, j, false, true)
}

// sendrecvJoin is a combined exchange's dcgn-sendrecv-join helper, a
// stackless proc on the simulated backend: the parent request and its two
// halves, which it waits for before completing the parent.
type sendrecvJoin struct {
	parent     *request
	send, recv request
}

func (j *sendrecvJoin) step(h transport.Proc) bool {
	if !j.send.done.WaitStep(h) || !j.recv.done.WaitStep(h) {
		return false
	}
	req, send, recv := j.parent, &j.send, &j.recv
	err := send.err
	if err == nil {
		err = recv.err
	}
	if recv.ns.flowsOn && recv.parentID != 0 {
		req.traceID = recv.traceID
		req.parentID = recv.parentID
	}
	if recv.recvFrame {
		// The receive half adopted the arrived frame in place of the
		// parent's staging, which nothing reads any more.
		recv.ns.job.pool.Put(req.recvBuf)
		req.recvBuf, req.recvFrame = recv.recvBuf, true
	}
	req.complete(recv.status.Source, recv.status.Bytes, err)
	return true
}

// handleSend matches a local-destination send against posted receives or
// relays a remote-destination send over the transport.
func (ns *nodeState) handleSend(p transport.Proc, req *request) {
	ns.observe(p, req)
	dstNode := ns.job.rmap.Node(req.peer)
	if dstNode != ns.node {
		// Remote. The frame takes its place in the lane's stream here, on
		// the comm thread, so per-destination order is fixed before concurrent
		// tx helpers race to the transport. A helper performs the (possibly
		// rendezvous) transport send so the comm thread keeps draining its
		// queue; completion is signaled when the underlying send completes
		// (and, on a reliable lane, is acknowledged), as in the paper's
		// dataflow (Fig. 2, steps 2-3).
		seq := ns.wire.assignSeq(dstNode)
		f := &frame{
			kind: kindData, src: req.rank, dst: req.peer, seq: seq,
			payload: req.payload(), traceID: req.traceID, spanID: req.spanID,
		}
		msg := req.buf
		if req.sendFrame {
			putHeader(msg, ns.wire.layout, f) // the payload is staged behind room for it
		} else {
			msg = packFrame(ns.job.pool, ns.wire.layout, f)
		}
		tx := &remoteSend{req: req}
		var sentAt *time.Duration
		if ns.obsOn {
			sentAt = &req.wireSentAt
		}
		// The lane owns msg from here: the wire buffer is not ours again.
		ns.wire.startTx(&tx.tx, dstNode, seq, msg, sentAt)
		ns.rt.SpawnStep("dcgn-tx", ns.node, tx, false, true)
		return
	}
	// Local destination: match a posted receive (FIFO).
	if rr := ns.index.takeRecvFor(req.rank, req.peer); rr != nil {
		ns.matched(p, req, rr)
		ns.deliverLocal(p, req, rr)
		return
	}
	ns.index.addSend(req)
}

// remoteSend is a remote send's dcgn-tx helper: the relay charge, the
// frame's transmit, the notify charge, then the request's completion.
type remoteSend struct {
	req   *request
	tx    txFrame
	phase uint8
}

// The phases of a remoteSend.
const (
	rsRelay uint8 = iota
	rsWire
	rsNotify
)

func (x *remoteSend) step(h transport.Proc) bool {
	req := x.req
	ns := req.ns
	switch x.phase {
	case rsRelay:
		x.phase = rsWire
		if !sleepStep(h, ns.jit, ns.job.cfg.Params.RemoteRelayCost) {
			return false
		}
		fallthrough
	case rsWire:
		if !x.tx.step(h) {
			return false
		}
		if ns.obsOn && ns.wire.seq != nil && x.tx.err == nil {
			req.ackedAt = h.Now()
		}
		x.phase = rsNotify
		if !sleepStep(h, ns.jit, ns.job.cfg.Params.NotifyCost) {
			return false
		}
	}
	req.complete(req.rank, len(req.payload()), x.tx.err)
	return true
}

// Drop ends a transmit the helper was killed in the middle of
// (sim.Dropper).
func (x *remoteSend) Drop() { x.tx.Drop() }

// handleRecv matches a posted receive against pending local sends, then
// against unexpected inbound messages; otherwise it is queued.
//
// AnySource tie-break: when both a pending local send and an unexpected
// wire message could satisfy an AnySource receive, the local send wins
// regardless of which arrived first. This is deliberate, not an accident
// of ordering: DCGN guarantees FIFO only per (source, destination) pair,
// and cross-source arrival order over a wire is not meaningful — the
// "older" wire message's wall-clock arrival is an artifact of fabric
// timing, not program order. Preferring the local pool keeps the comm
// thread's cheap memcpy path hot and is pinned cross-backend by
// TestConformanceAnySourceLocalVsWire.
func (ns *nodeState) handleRecv(p transport.Proc, req *request) {
	ns.observe(p, req)
	if req.peer == AnySource || ns.job.rmap.Node(req.peer) == ns.node {
		// Potential local sender.
		if sr := ns.index.sends.take(req.peer, req.rank); sr != nil {
			ns.matched(p, req, sr)
			ns.deliverLocal(p, sr, req)
			return
		}
	}
	if in := ns.index.unexp.take(req.peer, req.rank); in != nil {
		ns.matched(p, req, nil)
		ns.deliverInbound(p, in, req, true)
		return
	}
	ns.index.addRecv(req)
}

// handleInbound matches a wire message against posted receives.
func (ns *nodeState) handleInbound(p transport.Proc, in *inbound) {
	if rr := ns.index.takeRecvFor(in.src, in.dst); rr != nil {
		ns.matched(p, nil, rr)
		ns.deliverInbound(p, in, rr, false)
		return
	}
	ns.index.addUnexpected(in)
}

// observe stamps a point-to-point request as it is first handled: the
// current queue depth and the handling time, from which the trace layer
// derives how long the request waited in the matching index.
func (ns *nodeState) observe(p transport.Proc, req *request) {
	req.handledAt = p.Now()
	req.queueDepth = ns.index.depth()
}

// matched stamps both sides of a match with the match time and feeds the
// match-wait histograms. Either side may be nil (inbound wire messages are
// not traced requests).
func (ns *nodeState) matched(p transport.Proc, a, b *request) {
	now := p.Now()
	for _, r := range [2]*request{a, b} {
		if r == nil {
			continue
		}
		r.matchedAt = now
		if m := ns.job.metrics; m != nil {
			m.observe(histKey{kind: histMatchWait, op: r.op, gpu: r.gpu, size: obs.SizeClassIndex(len(r.buf))}, int64(now-r.handledAt))
		}
	}
}

// deliverLocal completes a matched local send/recv pair: the comm thread
// performs the memcpy itself instead of using MPI (paper §6.2).
//
// Truncation is a receiver-side error uniformly: a wire-routed send never
// learns that the remote receive buffer was short (the transport has
// already buffered the frame by then), so a locally-matched send must not
// either — the same program observes the same error semantics whichever
// node its peer landed on. Pinned by TestConformanceTruncation.
func (ns *nodeState) deliverLocal(p transport.Proc, send, recv *request) {
	n := len(send.buf)
	var err error
	if n > len(recv.buf) {
		n = len(recv.buf)
		err = ErrTruncate
	}
	ns.chargeMemcpy(p, n)
	copy(recv.buf[:n], send.buf[:n])
	if ns.flowsOn && send.spanID != 0 {
		// Stitch: the matched receive joins the send's flow.
		recv.traceID = send.traceID
		recv.parentID = send.spanID
	}
	ns.charge(p, ns.job.cfg.Params.NotifyCost)
	send.complete(send.rank, len(send.buf), nil)
	ns.charge(p, ns.job.cfg.Params.NotifyCost)
	recv.complete(send.rank, n, err)
}

// deliverInbound completes a posted receive with a wire payload. A
// pre-posted receive is delivered without a staging copy (the underlying
// MPI lands data in the matched buffer); only messages that sat in the
// unexpected queue pay the memcpy. On the host, a CPU receive copies the
// payload into its buffer; a GPU receive, whose buffer is only staging on
// the way to the device, adopts the frame instead (recvFrame), and
// writeBack copies its payload in.
func (ns *nodeState) deliverInbound(p transport.Proc, in *inbound, recv *request, wasUnexpected bool) {
	n := len(in.data)
	var err error
	if n > len(recv.buf) {
		n = len(recv.buf)
		err = ErrTruncate
	}
	if wasUnexpected {
		ns.chargeMemcpy(p, n)
	}
	if recv.gpu {
		recv.recvBuf, recv.recvFrame = in.backing, true
	} else {
		copy(recv.buf[:n], in.data[:n])
		ns.job.pool.Put(in.backing)
	}
	in.backing, in.data = nil, nil
	if ns.flowsOn && in.spanID != 0 {
		// Stitch: the receive joins the flow carried in the wire header.
		recv.traceID = in.traceID
		recv.parentID = in.spanID
	}
	ns.charge(p, ns.job.cfg.Params.NotifyCost)
	recv.complete(in.src, n, err)
}

// chargeMemcpy charges the comm thread for one staging copy.
func (ns *nodeState) chargeMemcpy(p transport.Proc, n int) {
	if n == 0 {
		return
	}
	ns.charge(p, time.Duration(float64(n)/ns.job.cfg.Params.LocalMemcpyBW*1e9))
}
