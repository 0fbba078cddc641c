package mpi

import (
	"fmt"
	"slices"

	"dcgn/internal/fabric"
	"dcgn/internal/sim"
)

// Isend starts a nonblocking send of buf to rank dst with the given tag.
// Payloads at or below the eager limit are copied and injected immediately
// (the request completes as soon as the copy is buffered); larger payloads
// use the rendezvous protocol and complete once the matched receiver's CTS
// has arrived and the data has been injected. The caller must not modify
// buf until the request completes.
func (r *Rank) Isend(p *sim.Proc, buf []byte, dst, tag int) *Request {
	var op SendOp
	for !r.sendStep(p, &op, buf, dst, tag, false, false) {
		p.Await()
	}
	req := &Request{}
	if sr, ok := op.Req.(*sendReq); ok {
		// The caller keeps the send: its life is over for the rank's list,
		// which never hands it out again.
		req.done = &sr.done
		r.sends.Drop()
	}
	return req
}

// SendOp is the progress of a send driven as a step machine — Send and
// SendMsg drive one with Proc.Await, and a stackless proc steps one itself
// (SendMsgStep). The zero value is a send not yet started; the message and
// its destination are the caller's, passed to every step. Its fields are
// the op's own, exported only for its layout: a transport keeps it in its
// send op as a transport.WireState, which has the same one.
type SendOp struct {
	Phase uint8
	// Req is a rendezvous send's request (a *sendReq), once its RTS is
	// built.
	Req any
}

// The phases of a SendOp.
const (
	sendCall uint8 = iota // the library call's overhead
	sendPost              // inject the eager payload, or send the RTS
	sendRTS               // the RTS's outbound cost is paid
	sendWait              // wait for the rendezvous data to go
)

// SendMsgStep is SendMsg's step form: it advances op, a take-ownership
// send of buf to rank dst with tag, on p and reports whether the send is
// complete; if it is not, it has registered p's next wake, after which p
// calls it again with the same arguments. The call overhead, an eager
// injection (an mpi-eager helper puts the payload on the wire, so the send
// is complete once it is spawned), a rendezvous's RTS (Node.SendStep, then
// Sent) and the wait for its data take the slots they take in SendMsg,
// which is this form driven by Await.
func (r *Rank) SendMsgStep(p *sim.Proc, op *SendOp, buf []byte, dst, tag int) bool {
	return r.sendStep(p, op, buf, dst, tag, true, true)
}

// sendStep advances any send, stopping once it is posted when wait is
// false (Isend, Sendrecv). A buffered send (owned false) puts a staging
// copy of buf on the wire, so the caller may reuse buf once the send
// completes — for a rendezvous, on injection, before the receiver has the
// data; an owned one puts buf itself on the wire.
func (r *Rank) sendStep(p *sim.Proc, op *SendOp, buf []byte, dst, tag int, owned, wait bool) bool {
	switch op.Phase {
	case sendCall:
		if dst < 0 || dst >= len(r.w.ranks) {
			panic(fmt.Sprintf("mpi: send to bad rank %d", dst))
		}
		if tag < 0 {
			panic("mpi: negative user tag")
		}
		op.Phase = sendPost
		p.SleepStep(r.jit.Scale(r.w.cfg.CallOverhead))
		return false
	case sendPost:
		r.nextSeq++
		seq := r.nextSeq
		data := buf
		if !owned {
			data = r.stagingPool().Get(len(buf))
			copy(data, buf)
		}
		nd := r.w.net.Node(r.node)
		if len(buf) <= r.w.cfg.EagerLimit {
			env := r.envs.Get()
			*env = envelope{kind: kindEager, src: r.id, dst: dst, tag: tag, seq: seq, size: len(data), data: data}
			nd.Inject("mpi-eager", r.id, r.w.nodeOf[dst], headerBytes+len(data), env)
			return true
		}
		sr := r.sends.Get()
		sr.from, sr.data, sr.dst, sr.tag, sr.seq = r, data, dst, tag, seq
		r.sim.InitEventID(&sr.done, r.sendPrefix, dst)
		r.pendingSends[seq] = sr
		rts := r.envs.Get()
		*rts = envelope{kind: kindRTS, src: r.id, dst: dst, tag: tag, seq: seq, size: len(buf)}
		sr.pkt = nd.SendStep(p, r.w.nodeOf[dst], headerBytes, rts)
		op.Req, op.Phase = sr, sendRTS
		return false
	case sendRTS:
		sr := op.Req.(*sendReq)
		r.w.net.Node(r.node).Sent(p, sr.pkt)
		sr.pkt, op.Phase = nil, sendWait
	}
	return !wait || r.sendDone(p, op)
}

// sendDone reports whether op's rendezvous send is complete, and gives its
// request back to the rank's list if so: nothing names it any more once
// its waiter has seen it done. If it is not, it has registered p's wake.
func (r *Rank) sendDone(p *sim.Proc, op *SendOp) bool {
	sr := op.Req.(*sendReq)
	if !sr.done.WaitStep(p) {
		return false
	}
	op.Req = nil
	r.sends.Put(sr)
	return true
}

// RecvOp is a receive in progress as a step machine — Recv and RecvMsg are
// one driven by Step and Proc.Await, and a stackless proc steps one itself.
// Posting it charges the call, gives the receive its completion event and
// matches it against the unexpected queue or parks it on the posted list:
// the one way a receive is posted.
type RecvOp struct {
	rr    recvReq
	r     *Rank
	phase uint8
	// cts is the clear-to-send answering an unexpected RTS, while its
	// outbound cost is paid.
	cts *fabric.Packet
}

// The phases of a RecvOp.
const (
	recvCall uint8 = iota // the library call's overhead
	recvPost              // match the unexpected queue, or post
	recvCTS               // a CTS's outbound cost is paid
	recvWait              // wait for the message
)

// RecvMsgOp returns the step form of RecvMsg(p, src, tag).
func (r *Rank) RecvMsgOp(src, tag int) RecvOp {
	return RecvOp{r: r, rr: recvReq{src: src, tag: tag, take: true}}
}

// Step advances the receive on p and reports whether it is complete; if it
// is not, it has registered p's next wake, after which p calls Step again.
// Its wakes take the slots RecvMsg's take, which is this op driven by Step
// and Await.
func (op *RecvOp) Step(p *sim.Proc) bool { return op.step(p, true) }

// step is Step, stopping once the receive is posted when wait is false
// (Sendrecv, and the collectives' sendrecv).
func (op *RecvOp) step(p *sim.Proc, wait bool) bool {
	r, rr := op.r, &op.rr
	switch op.phase {
	case recvCall:
		if rr.src != AnySource && (rr.src < 0 || rr.src >= len(r.w.ranks)) {
			panic(fmt.Sprintf("mpi: receive from bad rank %d", rr.src))
		}
		op.phase = recvPost
		p.SleepStep(r.jit.Scale(r.w.cfg.CallOverhead))
		return false
	case recvPost:
		r.sim.InitEventID(&rr.done, r.recvPrefix, rr.src)
		op.phase = recvWait
		env := r.takeUnexpected(rr)
		switch {
		case env == nil:
			r.posted = append(r.posted, rr)
		case env.kind == kindEager:
			r.deliver(rr, env)
		case env.kind == kindRTS:
			r.bound[env.seq] = rr
			c := r.cts(env)
			op.cts = r.w.net.Node(r.node).SendStep(p, r.w.nodeOf[c.dst], headerBytes, c)
			op.phase = recvCTS
			return false
		default:
			panic("mpi: bad kind in unexpected queue")
		}
	case recvCTS:
		r.w.net.Node(r.node).Sent(p, op.cts)
		op.cts = nil
		op.phase = recvWait
	}
	return !wait || rr.done.WaitStep(p)
}

// Result returns a completed receive's status, the payload a
// take-ownership receive (RecvMsgOp) was handed, and its error.
func (op *RecvOp) Result() (Status, []byte, error) { return op.rr.stat, op.rr.buf, op.rr.err }

// Drop takes the receive off the posted list unless it has completed: what
// a proc that ends before its receive does — killed with its simulated
// tenant — must do, so that nothing is left for takePosted to scan or for a
// later frame to land in.
func (op *RecvOp) Drop() {
	rr := &op.rr
	if op.phase < recvCTS || rr.done.Fired() {
		return // not posted yet, or complete
	}
	if i := slices.Index(op.r.posted, rr); i >= 0 {
		op.r.posted = slices.Delete(op.r.posted, i, i+1)
	}
}

// await drives op to its end on p, dropping it if p unwinds first.
func (r *Rank) await(p *sim.Proc, op *RecvOp) {
	defer op.Drop()
	for !op.Step(p) {
		p.Await()
	}
}

// Send is a blocking send (Isend + Wait); an eager one waits for nothing,
// so it builds no request. It reports no error.
func (r *Rank) Send(p *sim.Proc, buf []byte, dst, tag int) error {
	var op SendOp
	for !r.sendStep(p, &op, buf, dst, tag, false, true) {
		p.Await()
	}
	return nil
}

// SendMsg is a take-ownership blocking send, the send-side twin of RecvMsg:
// buf must come from the rank's staging pool, and it is the payload on the
// wire — no eager copy, no rendezvous snapshot — until the receiver takes
// it (RecvMsg) or releases it (Recv). Modeled costs and timing are Send's.
func (r *Rank) SendMsg(p *sim.Proc, buf []byte, dst, tag int) error {
	var op SendOp
	for !r.SendMsgStep(p, &op, buf, dst, tag) {
		p.Await()
	}
	return nil
}

// Recv is a blocking receive.
func (r *Rank) Recv(p *sim.Proc, buf []byte, src, tag int) (Status, error) {
	op := RecvOp{r: r, rr: recvReq{buf: buf, src: src, tag: tag}}
	r.await(p, &op)
	return op.rr.stat, op.rr.err
}

// RecvMsg is a take-ownership blocking receive: instead of copying the
// matched payload into a caller buffer, it hands the staging slice itself
// to the caller — the zero-copy path for relays that would otherwise
// receive into one buffer and immediately copy out of it. The returned
// slice must be released to the world's Pool when the caller is done with
// it (it may be nil for zero-length messages; releasing nil is a no-op).
func (r *Rank) RecvMsg(p *sim.Proc, src, tag int) (Status, []byte, error) {
	op := r.RecvMsgOp(src, tag)
	r.await(p, &op)
	return op.Result()
}

// Sendrecv posts a send and a receive simultaneously and waits for both —
// the deadlock-free exchange primitive.
func (r *Rank) Sendrecv(p *sim.Proc, sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	op := RecvOp{r: r, rr: recvReq{buf: recvBuf, src: src, tag: recvTag}}
	r.sendrecv(p, &op, sendBuf, dst, sendTag)
	return op.rr.stat, op.rr.err
}

// sendrecv posts the receive op, sends buf to dst with tag and waits for
// the receive.
func (r *Rank) sendrecv(p *sim.Proc, op *RecvOp, buf []byte, dst, tag int) {
	for !op.step(p, false) {
		p.Await()
	}
	r.Send(p, buf, dst, tag)
	r.await(p, op)
}

// SendrecvReplace exchanges buf with a partner in place, the primitive
// Cannon's algorithm rotates matrix chunks with (paper §4). It is Sendrecv
// with a take-ownership receive (RecvMsg): the send stages its copy of buf,
// the arrived payload is copied into buf once the exchange is over, and no
// second buffer is needed. Modeled costs and timing are Sendrecv's. A
// message longer than buf reports ErrTruncate and leaves buf unchanged.
func (r *Rank) SendrecvReplace(p *sim.Proc, buf []byte, dst, sendTag, src, recvTag int) (Status, error) {
	op := r.RecvMsgOp(src, recvTag)
	r.sendrecv(p, &op, buf, dst, sendTag)
	st, data, _ := op.Result() // a take-ownership receive reports no error
	defer r.stagingPool().Put(data)
	if len(data) > len(buf) {
		st.Count = len(buf)
		return st, ErrTruncate
	}
	copy(buf, data)
	return st, nil
}
