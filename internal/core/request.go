package core

import (
	"fmt"
	"time"

	"dcgn/internal/sim"
)

// CommStatus is DCGN's receive status (the paper's dcgn::CommStatus).
type CommStatus struct {
	// Source is the virtual rank the message came from.
	Source int
	// Bytes is the payload length delivered.
	Bytes int
}

// opKind enumerates DCGN request types flowing through the comm thread's
// work queue and over the wire.
type opKind uint8

const (
	opSend opKind = iota + 1
	opRecv
	opBarrier
	opBcast
	opGather
	opScatter
	// opSendrecv is DCGN's combined exchange: one request (and, from a GPU,
	// one mailbox transaction and one polling cycle instead of two) posting
	// a send and a receive together. §5.1 credits this primitive for
	// Cannon's algorithm performance.
	opSendrecv
	// opAlltoall follows the paper's "general pattern for use with gather,
	// scatter, and all-to-all" (§3.2.3): accumulate local arrivals, one
	// vector MPI call per node, then local dispersal.
	opAlltoall
)

func (o opKind) String() string {
	switch o {
	case opSend:
		return "send"
	case opRecv:
		return "recv"
	case opBarrier:
		return "barrier"
	case opBcast:
		return "bcast"
	case opGather:
		return "gather"
	case opScatter:
		return "scatter"
	case opSendrecv:
		return "sendrecv"
	case opAlltoall:
		return "alltoall"
	}
	return fmt.Sprintf("op%d", int(o))
}

// request is one communication request funneled to a node's comm thread.
// All requests — from CPU-kernel threads and from GPU monitors alike — look
// identical to the comm thread (paper §6.2).
type request struct {
	op   opKind
	rank int // issuing virtual rank
	peer int // send: destination; recv: source (or AnySource); collectives: root
	// peer2 is the receive source of a sendrecv (peer is its destination).
	peer2 int

	// buf is the host-side payload/staging buffer. For sends it holds the
	// outgoing data; for recvs and non-root collective participants it is
	// the destination.
	buf []byte
	// recvBuf is the second buffer used by gather (root's destination) and
	// scatter (root's source is buf... see gather/scatter handlers).
	recvBuf []byte

	done   completion
	status CommStatus
	err    error

	// ns is the engine state of the node that owns this request, used by
	// the completion path to fold the lifecycle span into the node's ring.
	// Nil in bare unit-test requests, which are then simply not recorded.
	ns *nodeState
	// gpu marks requests issued by a device slot (set at creation, so
	// metrics can distinguish sources even with tracing off).
	gpu bool
	// traced marks requests whose lifecycle span goes into the trace ring
	// on completion (set by traceSink.record when Config.Trace is on).
	traced bool
	// sendFrame and recvFrame mark a buffer that is a whole two-sided wire
	// frame, its payload after the data header (nodeState.dataHdr) — what
	// spares a GPU's remote traffic the host copies nothing models. With
	// sendFrame, buf is a GPU send's staging with room left for the header
	// (buildRequest): handleSend writes the header in place and hands it to
	// the wire, after which only its length is the request's. With
	// recvFrame, recvBuf is an arrived frame a GPU receive adopted instead
	// of copying its payload into buf (deliverInbound), and writeBackStep copies
	// from it and releases it. They sit in padding: request must not grow.
	sendFrame, recvFrame bool

	// Lifecycle observability, stamped as the request moves through the
	// engine's layers (trace.go). A point-to-point request records the
	// index depth when it was first handled and the time it was handled
	// and matched; their difference is the time it sat waiting in the
	// matching index. Collectives and remote sends do not enter the index
	// and leave matchedAt zero; only wire-routed sends stamp wireSentAt,
	// and only the reliability layer stamps ackedAt.
	postedAt   time.Duration
	dequeuedAt time.Duration
	handledAt  time.Duration
	matchedAt  time.Duration
	wireSentAt time.Duration
	ackedAt    time.Duration
	queueDepth int

	// Flow context (Config.Flows): traceID identifies the causal message
	// flow (the root span's spanID), spanID this request's own span, and
	// parentID the causally-preceding span — for a matched receive, the
	// send that produced its payload. Assigned by traceSink.record and
	// propagated through wire frames; all zero with flows off.
	traceID  uint64
	spanID   uint64
	parentID uint64
}

// simRequest is a request with room for its completion event: on the
// simulated backend the event is made in ev (rt.EventIn), so it lives
// exactly as long as the request and costs no allocation of its own. It
// stays out of request itself, which the live backend allocates too, with
// a completion of its own. A blocking call's request lives in the object
// that makes the call — a CPU kernel's CPUCtx, a device slot's slotState —
// and is made again for each call (reset); an AsyncOp comes from its
// kernel's free list (CPUCtx.ops) and goes back to it at its Wait.
type simRequest struct {
	request
	ev sim.Event
}

// reset makes r a fresh request of ns's, completed by an event named
// prefix:id. The request's last use must be over: its completion fired
// and was waited for, and nothing touches a request once complete fires
// it, so nothing else still holds it.
func (r *simRequest) reset(ns *nodeState, prefix string, id int) *request {
	r.request = request{ns: ns}
	r.done = ns.rt.EventIn(&r.ev, prefix, id)
	return &r.request
}

// complete finishes a request and wakes its issuer. Traced requests record
// their lifecycle span here, before the issuer is released — a struct copy
// into the node's ring, on whichever proc or goroutine completed the
// request, replacing the old one-daemon-per-record design. complete is the
// completer's last touch of r: its issuer may make it again for its next
// call (simRequest.reset) as soon as it wakes, on the live backend while
// the completer runs on, so whatever the completer still needs from r it
// reads before.
func (r *request) complete(src, n int, err error) {
	r.status = CommStatus{Source: src, Bytes: n}
	r.err = err
	if r.traced && r.ns != nil {
		r.ns.recordSpan(r)
	}
	r.done.Fire()
}

// payload returns the request's payload bytes: buf, less the header room
// of a sendFrame buffer.
func (r *request) payload() []byte {
	if r.sendFrame {
		return r.buf[r.ns.dataHdr():]
	}
	return r.buf
}

// inbound is a two-sided message received from another node, already
// demultiplexed from the underlying MPI by the receiver helper. It is the
// slice of a parsed frame the matcher needs, kept apart from frame so a
// queued message does not carry the one-sided fields.
type inbound struct {
	src  int // sending virtual rank
	dst  int // destination virtual rank (local to this node)
	data []byte
	// backing is the pooled wire buffer that data aliases (header included).
	// The comm thread returns it to the job pool once the payload has been
	// copied into the matched receive buffer, unless a GPU receive adopts it.
	backing []byte
	// traceID and spanID carry the sending request's flow context across
	// the wire (Config.Flows), so the matched receive inherits the trace
	// and parents itself on the send's span. Zero with flows off.
	traceID uint64
	spanID  uint64
}

// commMsg is what flows through a node's comm-thread queue.
type commMsg struct {
	req *request // nil for inbound wire messages
	in  *inbound // nil for local requests
}

// packPeers encodes a sendrecv's destination and source ranks into one
// 64-bit mailbox word (destination low, source high; both as int32 so
// AnySource survives).
func packPeers(dst, src int) int64 {
	return int64(uint32(int32(dst))) | int64(int32(src))<<32
}

// unpackPeers is the inverse of packPeers.
func unpackPeers(v int64) (dst, src int) {
	return int(int32(uint32(v))), int(int32(v >> 32))
}
