package core

import (
	"time"

	"dcgn/internal/obs"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// Point-to-point handling: the comm thread matches local traffic with
// memcpy instead of MPI (paper §6.2) and relays remote traffic through
// the transport. All matching state lives in ns.index (the matcher).

// handleSendrecv splits a combined exchange into its send and receive
// halves, handles the receive half and then the send half, and completes
// the parent when both finish (sendrecvJoin), as a step form of the comm
// thread (ct.at counts the halves handled). The split happens inside the
// comm thread, so a GPU-sourced exchange costs a single mailbox round trip
// — the optimization §5.1 credits for Cannon's performance.
func (ns *nodeState) handleSendrecv(h transport.Proc, ct *commThread, req *request) bool {
	rt := ns.rt
	if ct.at == 0 {
		j := ns.joins.Get()
		j.parent = req
		j.send = request{
			op: opSend, rank: req.rank, peer: req.peer, buf: req.buf,
			done: rt.EventIn(&j.evs[0], "srv-send", req.rank), ns: ns, gpu: req.gpu, sendFrame: req.sendFrame,
		}
		j.recv = request{
			op: opRecv, rank: req.rank, peer: req.peer2, buf: req.recvBuf,
			done: rt.EventIn(&j.evs[1], "srv-recv", req.rank), ns: ns, gpu: req.gpu,
		}
		if ns.flowsOn {
			// The outgoing half carries the parent exchange's flow context; the
			// parent itself inherits whatever flow the matched inbound half
			// joins it to (copied back in the join).
			j.send.traceID = req.traceID
			j.send.spanID = req.spanID
		}
		ct.join, ct.at = j, 1
		ns.handleRecv(h, &ct.dl, &j.recv)
	}
	j := ct.join
	if ct.at == 1 {
		if !ct.dl.step(h) {
			return false
		}
		ct.at = 2
		ns.handleSend(h, &ct.dl, &j.send)
	}
	if !ct.dl.step(h) {
		return false
	}
	rt.SpawnStep("dcgn-sendrecv-join", req.rank, j, false, true)
	ct.join, ct.at = nil, 0
	return true
}

// sendrecvJoin is a combined exchange's dcgn-sendrecv-join helper, a
// stackless proc on the simulated backend: the parent request and its two
// halves, which it waits for before completing the parent, with their
// completion events on the simulated backend. It comes from its node's
// list (nodeState.joins) and goes back to it at the end of its last step.
type sendrecvJoin struct {
	parent     *request
	send, recv request
	evs        [2]sim.Event
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
	ns := recv.ns
	req.complete(recv.status.Source, recv.status.Bytes, err)
	ns.joins.Put(j)
	return true
}

// Drop ends a join whose helper was killed waiting (sim.Dropper): a stale
// wake may still name its events, so it is left to the garbage collector.
func (j *sendrecvJoin) Drop() { j.recv.ns.joins.Drop() }

// handleSend matches a local-destination send against posted receives or
// relays a remote-destination send over the transport. A match readies dl
// to deliver it, which the caller steps.
func (ns *nodeState) handleSend(p transport.Proc, dl *delivery, req *request) {
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
		tx := ns.txs.Get()
		tx.req = req
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
		*dl = delivery{ns: ns, send: req, recv: rr}
		return
	}
	ns.index.addSend(req)
}

// remoteSend is a remote send's dcgn-tx helper: the relay charge, the
// frame's transmit, the notify charge, then the request's completion, after
// which the helper goes back to its node's list (nodeState.txs).
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
	ns.txs.Put(x)
	return true
}

// Drop ends a transmit the helper was killed in the middle of
// (sim.Dropper). The helper itself is left to the garbage collector: a
// stale wake may still name its proc.
func (x *remoteSend) Drop() {
	x.tx.Drop()
	x.req.ns.txs.Drop()
}

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
func (ns *nodeState) handleRecv(p transport.Proc, dl *delivery, req *request) {
	ns.observe(p, req)
	if req.peer == AnySource || ns.job.rmap.Node(req.peer) == ns.node {
		// Potential local sender.
		if sr := ns.index.sends.take(req.peer, req.rank); sr != nil {
			ns.matched(p, req, sr)
			*dl = delivery{ns: ns, send: sr, recv: req}
			return
		}
	}
	if in := ns.index.unexp.take(req.peer, req.rank); in != nil {
		ns.matched(p, req, nil)
		*dl = delivery{ns: ns, in: in, recv: req, unexpected: true}
		return
	}
	ns.index.addRecv(req)
}

// handleInbound matches a wire message against posted receives.
func (ns *nodeState) handleInbound(p transport.Proc, dl *delivery, in *inbound) {
	if rr := ns.index.takeRecvFor(in.src, in.dst); rr != nil {
		ns.matched(p, nil, rr)
		*dl = delivery{ns: ns, in: in, recv: rr}
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

// delivery is a matched pair's delivery in progress on the comm thread, a
// step form (step) whose cursor lives in the comm thread: a local send
// matched with a receive (deliverLocal), or an inbound wire message
// (deliverInbound). The zero delivery has nothing to deliver.
type delivery struct {
	ns         *nodeState
	send, recv *request
	in         *inbound
	// unexpected marks an inbound that sat in the unexpected queue, which
	// pays a staging copy.
	unexpected bool
	at         uint8
	// n and err are the delivered byte count and the receive's error, and
	// src the sending rank the receive reports.
	n   int
	err error
	src int
}

// step advances the delivery and reports whether it is done; if it is
// not, it has registered h's next wake.
func (dl *delivery) step(h transport.Proc) bool {
	switch {
	case dl.recv == nil:
		return true
	case dl.in != nil:
		return dl.deliverInbound(h)
	}
	return dl.deliverLocal(h)
}

// The points a delivery stands at.
const (
	dlCopy    uint8 = iota + 1 // the staging copy is charged
	dlNotify                   // the (first) notify is charged
	dlNotify2                  // a local pair's second notify is charged
)

// deliverLocal completes a matched local send/recv pair: the comm thread
// performs the memcpy itself instead of using MPI (paper §6.2).
//
// Truncation is a receiver-side error uniformly: a wire-routed send never
// learns that the remote receive buffer was short (the transport has
// already buffered the frame by then), so a locally-matched send must not
// either — the same program observes the same error semantics whichever
// node its peer landed on. Pinned by TestConformanceTruncation.
func (dl *delivery) deliverLocal(h transport.Proc) bool {
	ns, send, recv := dl.ns, dl.send, dl.recv
	notify := ns.job.cfg.Params.NotifyCost
	switch dl.at {
	case 0:
		dl.n, dl.src = len(send.buf), send.rank
		if dl.n > len(recv.buf) {
			dl.n, dl.err = len(recv.buf), ErrTruncate
		}
		dl.at = dlCopy
		if dl.n > 0 && !sleepStep(h, ns.jit, ns.memcpyTime(dl.n)) {
			return false
		}
		fallthrough
	case dlCopy:
		copy(recv.buf[:dl.n], send.buf[:dl.n])
		if ns.flowsOn && send.spanID != 0 {
			// Stitch: the matched receive joins the send's flow.
			recv.traceID = send.traceID
			recv.parentID = send.spanID
		}
		dl.at = dlNotify
		if !sleepStep(h, ns.jit, notify) {
			return false
		}
		fallthrough
	case dlNotify:
		// The send's issuer may make its request again once it completes:
		// the receive's source was read before (dl.src).
		send.complete(send.rank, len(send.buf), nil)
		dl.at = dlNotify2
		if !sleepStep(h, ns.jit, notify) {
			return false
		}
	}
	recv.complete(dl.src, dl.n, dl.err)
	*dl = delivery{}
	return true
}

// deliverInbound completes a posted receive with a wire payload. A
// pre-posted receive is delivered without a staging copy (the underlying
// MPI lands data in the matched buffer); only messages that sat in the
// unexpected queue pay the memcpy. On the host, a CPU receive copies the
// payload into its buffer; a GPU receive, whose buffer is only staging on
// the way to the device, adopts the frame instead (recvFrame), and
// writeBackStep copies its payload in.
func (dl *delivery) deliverInbound(h transport.Proc) bool {
	ns, in, recv := dl.ns, dl.in, dl.recv
	switch dl.at {
	case 0:
		dl.n = len(in.data)
		if dl.n > len(recv.buf) {
			dl.n, dl.err = len(recv.buf), ErrTruncate
		}
		dl.at = dlCopy
		if dl.unexpected && dl.n > 0 && !sleepStep(h, ns.jit, ns.memcpyTime(dl.n)) {
			return false
		}
		fallthrough
	case dlCopy:
		if recv.gpu {
			recv.recvBuf, recv.recvFrame = in.backing, true
		} else {
			copy(recv.buf[:dl.n], in.data[:dl.n])
			ns.job.pool.Put(in.backing)
		}
		in.backing, in.data = nil, nil
		if ns.flowsOn && in.spanID != 0 {
			// Stitch: the receive joins the flow carried in the wire header.
			recv.traceID = in.traceID
			recv.parentID = in.spanID
		}
		dl.at = dlNotify
		if !sleepStep(h, ns.jit, ns.job.cfg.Params.NotifyCost) {
			return false
		}
	}
	recv.complete(in.src, dl.n, dl.err)
	ns.ins.Put(in)
	*dl = delivery{}
	return true
}

// memcpyTime is the modeled time of an n-byte host copy.
func (ns *nodeState) memcpyTime(n int) time.Duration {
	return time.Duration(float64(n) / ns.job.cfg.Params.LocalMemcpyBW * 1e9)
}
