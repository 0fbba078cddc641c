package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"dcgn/internal/bufpool"
)

// Wire frames. Everything one node sends another — a two-sided message, a
// one-sided put/get/atomic, an acknowledgment on either lane — is one
// frame: a 24-byte base header, the fixed-size extensions the lane's
// layout selects, then the payload. Integers are little-endian.
//
//	base       24 B  src rank i64 | dst rank i64 | payload length u64
//	sequence   16 B  seq u64 | kind u32 | flags u32
//	one-sided  32 B  window u32 | token u32 | offset i64 | posted-at i64 | aux u64
//	flow       16 B  trace ID u64 | span ID u64
//
// Both ends of a job share one Config, so a lane's layout is never
// negotiated: it follows from the lane, Config.Reliability and
// Config.Flows (laneLayout). DESIGN.md "Wire format" tabulates which lane
// and kind carries which extension. No file but this one knows an offset.

// frameKind says what a frame asks of its receiver. A layout without the
// sequence extension has nowhere to carry it: every frame is kindData.
type frameKind uint32

const (
	kindData     frameKind = iota + 1 // two-sided message; src/dst are virtual ranks
	kindAck                           // acknowledges seq; src is the acking NODE, no payload
	kindPut                           // apply payload into the target window
	kindGetReq                        // read aux bytes from the window, reply with kindGetRep
	kindGetRep                        // get reply: payload for the requester's pending token
	kindAccum                         // element-wise atomic update into the window (aux = op)
	kindFetchReq                      // atomic fetch-and-op on one int64 (aux = op, payload = operand)
	kindFetchRep                      // fetch-and-op reply: prior value for the pending token
)

// flagTrunc marks a get or fetch reply whose request over-ran the window.
const flagTrunc = 1

// layout is the set of extensions every frame of one lane carries.
type layout uint8

const (
	extSeq  layout = 1 << iota // sequence number, kind, flags
	extOS                      // one-sided addressing
	extFlow                    // flow context (Config.Flows)
)

const (
	baseLen    = 24
	seqExtLen  = 16
	osExtLen   = 32
	flowExtLen = 16
)

// laneLayout returns the layout of the two-sided or the one-sided lane. The
// one-sided lane always carries the sequence extension, for its kind.
func laneLayout(oneSided, reliable, flows bool) layout {
	var l layout
	if oneSided {
		l |= extSeq | extOS
	}
	if reliable {
		l |= extSeq
	}
	if flows {
		l |= extFlow
	}
	return l
}

// carriesFlow reports whether a frame of kind k has the flow extension. A
// two-sided ack belongs to no flow and goes without.
func (l layout) carriesFlow(k frameKind) bool {
	return l&extFlow != 0 && (k != kindAck || l&extOS != 0)
}

// hdrLen is the header length of a frame of kind k: the payload's offset.
func (l layout) hdrLen(k frameKind) int {
	n := baseLen
	if l&extSeq != 0 {
		n += seqExtLen
	}
	if l&extOS != 0 {
		n += osExtLen
	}
	if l.carriesFlow(k) {
		n += flowExtLen
	}
	return n
}

// validKind reports whether kind k may appear on a lane of this layout.
func (l layout) validKind(k frameKind) bool {
	switch {
	case k == kindData:
		return l&extOS == 0
	case k == kindAck:
		return l&extSeq != 0
	default:
		return l&extOS != 0 && k >= kindPut && k <= kindFetchRep
	}
}

// osAddr is the one-sided addressing extension. aux carries the byte count
// of a get request (which has no payload) or the AtomicOp of an atomic;
// postedNs is the origin's clock at post time, for the remote-completion
// histogram (exact on the simulated backend, whose clock is global).
type osAddr struct {
	win      int
	token    uint32
	offset   int
	postedNs int64
	aux      uint64
}

// frame is one wire frame in parsed form. After unpackFrame, payload
// aliases backing, the pooled buffer the frame arrived in, which the
// consumer returns to the pool once the frame is applied or delivered.
type frame struct {
	kind     frameKind
	flags    uint32
	src, dst int
	seq      uint64
	// traceID and spanID are the sender's flow context: the receiver joins
	// the trace and parents its own span on spanID. Zero with flows off.
	traceID, spanID uint64
	os              osAddr
	payload         []byte
	backing         []byte
}

// packFrame builds header+payload for f in a pooled buffer, which the
// sender hands to its lane's transmit. No header outgrows bufpool's header
// room, so the frame of a power-of-two payload of 128 KiB or more is 128
// bytes over it, not twice it.
func packFrame(pool *bufpool.Pool, l layout, f *frame) []byte {
	hdr := l.hdrLen(f.kind)
	msg := pool.Get(hdr + len(f.payload))
	putHeader(msg, l, f)
	copy(msg[hdr:], f.payload)
	return msg
}

// putHeader writes f's header into the first l.hdrLen(f.kind) bytes of msg,
// announcing a payload of len(f.payload) bytes: packFrame's header, and the
// whole of the packing when the payload already sits after it (a GPU
// send's staging, gpu.go).
func putHeader(msg []byte, l layout, f *frame) {
	le := binary.LittleEndian
	le.PutUint64(msg[0:], uint64(int64(f.src)))
	le.PutUint64(msg[8:], uint64(int64(f.dst)))
	le.PutUint64(msg[16:], uint64(len(f.payload)))
	off := baseLen
	if l&extSeq != 0 {
		le.PutUint64(msg[off:], f.seq)
		le.PutUint32(msg[off+8:], uint32(f.kind))
		le.PutUint32(msg[off+12:], f.flags)
		off += seqExtLen
	}
	if l&extOS != 0 {
		le.PutUint32(msg[off:], uint32(f.os.win))
		le.PutUint32(msg[off+4:], f.os.token)
		le.PutUint64(msg[off+8:], uint64(int64(f.os.offset)))
		le.PutUint64(msg[off+16:], uint64(f.os.postedNs))
		le.PutUint64(msg[off+24:], f.os.aux)
		off += osExtLen
	}
	if l.carriesFlow(f.kind) {
		le.PutUint64(msg[off:], f.traceID)
		le.PutUint64(msg[off+8:], f.spanID)
	}
}

// unpackFrame parses one received frame. msg comes off the wire, so every
// length and index in it is checked before use: a frame that would index
// outside msg, or carry a negative window offset or byte count to the
// one-sided engine, is an error.
func unpackFrame(l layout, msg []byte) (frame, error) {
	if len(msg) < l.hdrLen(kindAck) { // no kind has a shorter header
		return frame{}, fmt.Errorf("core: short frame (%d bytes)", len(msg))
	}
	le := binary.LittleEndian
	f := frame{
		kind:    kindData,
		src:     int(int64(le.Uint64(msg[0:]))),
		dst:     int(int64(le.Uint64(msg[8:]))),
		backing: msg,
	}
	n := le.Uint64(msg[16:])
	off := baseLen
	if l&extSeq != 0 {
		f.seq = le.Uint64(msg[off:])
		f.kind = frameKind(le.Uint32(msg[off+8:]))
		f.flags = le.Uint32(msg[off+12:])
		off += seqExtLen
	}
	if !l.validKind(f.kind) {
		return frame{}, fmt.Errorf("core: unknown frame kind %d", f.kind)
	}
	hdr := l.hdrLen(f.kind)
	if len(msg) < hdr {
		return frame{}, fmt.Errorf("core: short frame (%d bytes, kind %d)", len(msg), f.kind)
	}
	if l&extOS != 0 {
		f.os = osAddr{
			win:      int(le.Uint32(msg[off:])),
			token:    le.Uint32(msg[off+4:]),
			offset:   int(int64(le.Uint64(msg[off+8:]))),
			postedNs: int64(le.Uint64(msg[off+16:])),
			aux:      le.Uint64(msg[off+24:]),
		}
		if f.os.offset < 0 || f.os.aux > math.MaxInt {
			return frame{}, fmt.Errorf("core: one-sided frame out of range: offset %d, aux %d", f.os.offset, f.os.aux)
		}
		off += osExtLen
	}
	if l.carriesFlow(f.kind) {
		f.traceID = le.Uint64(msg[off:])
		f.spanID = le.Uint64(msg[off+8:])
	}
	if n > uint64(len(msg)-hdr) {
		return frame{}, fmt.Errorf("core: frame truncated: header says %d, have %d", n, len(msg)-hdr)
	}
	f.payload = msg[hdr : hdr+int(n)]
	return f, nil
}

// setSeq rewrites the sequence number of a packed frame in place.
func setSeq(msg []byte, seq uint64) {
	binary.LittleEndian.PutUint64(msg[baseLen:], seq)
}

// setPostedAt rewrites the post time of a packed one-sided frame in place.
func setPostedAt(msg []byte, ns int64) {
	binary.LittleEndian.PutUint64(msg[baseLen+seqExtLen+16:], uint64(ns))
}
