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
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: Isend to bad rank %d", dst))
	}
	if tag < 0 {
		panic("mpi: negative user tag")
	}
	p.Sleep(r.jit.Scale(r.w.cfg.CallOverhead))
	r.nextSeq++
	seq := r.nextSeq
	done := r.sim.NewEventID(r.sendPrefix, dst)
	var errv error
	req := &Request{done: done, stat: &Status{}, err: &errv}
	nd := r.w.net.Node(r.node)
	dstNode := r.w.nodeOf[dst]

	if len(buf) <= r.w.cfg.EagerLimit {
		data := r.stagingPool().Get(len(buf)) // buffered semantics
		copy(data, buf)
		env := &envelope{kind: kindEager, src: r.id, dst: dst, tag: tag, seq: seq, size: len(data), data: data}
		r.sim.Spawn("mpi-eager", func(h *sim.Proc) {
			nd.Send(h, dstNode, headerBytes+len(data), env)
		})
		done.Fire() // locally complete: the payload is buffered
		return req
	}

	sr := &sendReq{data: buf, dst: dst, tag: tag, seq: seq, done: done}
	r.pendingSends[seq] = sr
	rts := &envelope{kind: kindRTS, src: r.id, dst: dst, tag: tag, seq: seq, size: len(buf)}
	nd.Send(p, dstNode, headerBytes, rts)
	return req
}

// Irecv starts a nonblocking receive into buf from rank src (or AnySource)
// with the given tag (or AnyTag).
func (r *Rank) Irecv(p *sim.Proc, buf []byte, src, tag int) *Request {
	rr := r.newRecv(p, &recvReq{buf: buf, src: src, tag: tag})
	return &Request{done: rr.done, stat: &rr.stat, err: &rr.err}
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
			r.w.sendCTS(p, r.w.net.Node(r.node), env)
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

// Send is a blocking send (Isend + Wait).
func (r *Rank) Send(p *sim.Proc, buf []byte, dst, tag int) error {
	_, err := r.Isend(p, buf, dst, tag).Wait(p)
	return err
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
	rreq := r.Irecv(p, recvBuf, src, recvTag)
	sreq := r.Isend(p, sendBuf, dst, sendTag)
	if _, err := sreq.Wait(p); err != nil {
		return Status{}, err
	}
	return rreq.Wait(p)
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
