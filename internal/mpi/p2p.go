package mpi

import (
	"fmt"
	"slices"

	"dcgn/internal/sim"
)

// Isend starts a nonblocking send of buf to rank dst with the given tag.
// Payloads at or below the eager limit are copied and injected immediately
// (the request completes as soon as the copy is buffered); larger payloads
// use the rendezvous protocol and complete once the matched receiver's CTS
// has arrived and the data has been injected. The caller must not modify
// buf until the request completes.
func (r *Rank) Isend(p *sim.Proc, buf []byte, dst, tag int) *Request {
	return &Request{done: r.send(p, buf, dst, tag, false)}
}

// send starts a send — Send, SendMsg, Isend and Sendrecv all go through
// here — and returns the event that completes it, nil for an eager send: an
// mpi-eager helper puts its payload on the wire, so it is complete already.
// A buffered send (owned false) puts a staging copy of buf on the wire, so
// the caller may reuse buf once the send completes — for a rendezvous, on
// injection, before the receiver has the data; an owned one puts buf
// itself on the wire.
func (r *Rank) send(p *sim.Proc, buf []byte, dst, tag int, owned bool) *sim.Event {
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: send to bad rank %d", dst))
	}
	if tag < 0 {
		panic("mpi: negative user tag")
	}
	p.Sleep(r.jit.Scale(r.w.cfg.CallOverhead))
	r.nextSeq++
	seq := r.nextSeq
	data := buf
	if !owned {
		data = r.stagingPool().Get(len(buf))
		copy(data, buf)
	}
	if len(buf) <= r.w.cfg.EagerLimit {
		env := &envelope{kind: kindEager, src: r.id, dst: dst, tag: tag, seq: seq, size: len(data), data: data}
		r.w.net.Node(r.node).Inject("mpi-eager", r.id, r.w.nodeOf[dst], headerBytes+len(data), env)
		return nil
	}
	done := r.sim.NewEventID(r.sendPrefix, dst)
	r.pendingSends[seq] = &sendReq{from: r, data: data, dst: dst, tag: tag, seq: seq, done: done}
	rts := &envelope{kind: kindRTS, src: r.id, dst: dst, tag: tag, seq: seq, size: len(buf)}
	r.w.net.Node(r.node).Send(p, r.w.nodeOf[dst], headerBytes, rts)
	return done
}

// Irecv starts a nonblocking receive into buf from rank src (or AnySource)
// with the given tag (or AnyTag).
func (r *Rank) Irecv(p *sim.Proc, buf []byte, src, tag int) *Request {
	rr := r.newRecv(p, &recvReq{buf: buf, src: src, tag: tag})
	return &Request{rr: rr}
}

// newRecv charges the call, gives rr its completion event and matches it
// against the unexpected queue or parks it on the posted list: the one way
// a receive — Irecv, Recv, RecvMsg — is posted.
func (r *Rank) newRecv(p *sim.Proc, rr *recvReq) *recvReq {
	if rr.src != AnySource && (rr.src < 0 || rr.src >= len(r.w.ranks)) {
		panic(fmt.Sprintf("mpi: receive from bad rank %d", rr.src))
	}
	p.Sleep(r.jit.Scale(r.w.cfg.CallOverhead))
	rr.done = r.sim.NewEventID(r.recvPrefix, rr.src)
	if env := r.takeUnexpected(rr); env != nil {
		switch env.kind {
		case kindEager:
			r.deliver(rr, env)
		case kindRTS:
			r.bound[env.seq] = rr
			r.w.net.Node(r.node).Send(p, r.w.nodeOf[env.src], headerBytes, cts(env))
		default:
			panic("mpi: bad kind in unexpected queue")
		}
		return rr
	}
	r.posted = append(r.posted, rr)
	return rr
}

// await blocks p until rr completes. A proc that unwinds first — killed
// with its simulated tenant — takes its posted receive with it, so nothing
// is left for takePosted to scan or for a later frame to land in.
func (r *Rank) await(p *sim.Proc, rr *recvReq) {
	defer func() {
		if !rr.done.Fired() {
			if i := slices.Index(r.posted, rr); i >= 0 {
				r.posted = slices.Delete(r.posted, i, i+1)
			}
		}
	}()
	rr.done.Wait(p)
}

// Send is a blocking send (Isend + Wait); an eager one waits for nothing,
// so it builds no request. It reports no error.
func (r *Rank) Send(p *sim.Proc, buf []byte, dst, tag int) error {
	return r.sendWait(p, buf, dst, tag, false)
}

// SendMsg is a take-ownership blocking send, the send-side twin of RecvMsg:
// buf must come from the rank's staging pool, and it is the payload on the
// wire — no eager copy, no rendezvous snapshot — until the receiver takes
// it (RecvMsg) or releases it (Recv). Modeled costs and timing are Send's.
func (r *Rank) SendMsg(p *sim.Proc, buf []byte, dst, tag int) error {
	return r.sendWait(p, buf, dst, tag, true)
}

func (r *Rank) sendWait(p *sim.Proc, buf []byte, dst, tag int, owned bool) error {
	if done := r.send(p, buf, dst, tag, owned); done != nil {
		done.Wait(p)
	}
	return nil
}

// Recv is a blocking receive.
func (r *Rank) Recv(p *sim.Proc, buf []byte, src, tag int) (Status, error) {
	rr := r.newRecv(p, &recvReq{buf: buf, src: src, tag: tag})
	r.await(p, rr)
	return rr.stat, rr.err
}

// RecvMsg is a take-ownership blocking receive: instead of copying the
// matched payload into a caller buffer, it hands the staging slice itself
// to the caller — the zero-copy path for relays that would otherwise
// receive into one buffer and immediately copy out of it. The returned
// slice must be released to the world's Pool when the caller is done with
// it (it may be nil for zero-length messages; releasing nil is a no-op).
func (r *Rank) RecvMsg(p *sim.Proc, src, tag int) (Status, []byte, error) {
	rr := r.newRecv(p, &recvReq{src: src, tag: tag, take: true})
	r.await(p, rr)
	return rr.stat, rr.data, rr.err
}

// Sendrecv posts a send and a receive simultaneously and waits for both —
// the deadlock-free exchange primitive.
func (r *Rank) Sendrecv(p *sim.Proc, sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	rr := r.newRecv(p, &recvReq{buf: recvBuf, src: src, tag: recvTag})
	r.Send(p, sendBuf, dst, sendTag)
	r.await(p, rr)
	return rr.stat, rr.err
}

// SendrecvReplace exchanges buf with a partner in place, the primitive
// Cannon's algorithm rotates matrix chunks with (paper §4).
func (r *Rank) SendrecvReplace(p *sim.Proc, buf []byte, dst, sendTag, src, recvTag int) (Status, error) {
	tmp := r.stagingPool().Get(len(buf))
	defer r.stagingPool().Put(tmp)
	st, err := r.Sendrecv(p, buf, dst, sendTag, tmp, src, recvTag)
	if err != nil {
		return st, err
	}
	copy(buf, tmp[:st.Count])
	return st, nil
}
