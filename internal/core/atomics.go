package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"dcgn/internal/transport"
)

// One-sided atomics: Accumulate (MPI_Accumulate) and FetchAndOp
// (MPI_Fetch_and_op) against registered windows. Both ride the same
// one-sided lane as Put/Get — frames go straight from the producing
// thread to the target's sink daemon, never through the two-sided
// progress engine — and under Config.Reliability they share the lane's
// seq/ack space, so an accumulate and the puts around it apply in post
// order at the target.
//
// The element type is int64, little-endian in the window (the window is
// plain bytes; atomics interpret 8-byte slots). Atomicity is
// per-element with respect to OTHER atomics on the same window: remote
// frames serialize on the target's sink daemon, and the local fast path
// takes the same per-window lock, so concurrent Accumulates from many
// origins always combine (never lose updates). A plain Put racing an
// atomic is not atomic, exactly as in MPI.
//
// Atomics require host windows: a device window would need a
// read-modify-write round trip over the PCIe payload path, which the
// paper's hardware model has no primitive for.

// AtomicOp selects the combining function of the one-sided atomics
// (CPUCtx.Accumulate, CPUCtx.FetchAndOp). Elements are int64.
type AtomicOp int

// Combining functions for AtomicOp.
const (
	// AtomicSum adds the operand to the window element (MPI_SUM).
	AtomicSum AtomicOp = iota
	// AtomicMin keeps the smaller of element and operand (MPI_MIN).
	AtomicMin
	// AtomicMax keeps the larger of element and operand (MPI_MAX).
	AtomicMax
	// AtomicReplace overwrites the element with the operand (MPI_REPLACE);
	// with FetchAndOp this is an atomic swap.
	AtomicReplace
)

// apply combines one window element with one operand.
func (op AtomicOp) apply(old, operand int64) int64 {
	switch op {
	case AtomicSum:
		return old + operand
	case AtomicMin:
		if operand < old {
			return operand
		}
		return old
	case AtomicMax:
		if operand > old {
			return operand
		}
		return old
	case AtomicReplace:
		return operand
	}
	panic(fmt.Sprintf("dcgn: unknown AtomicOp %d", int(op)))
}

// validate panics early (origin-side) on an op outside the defined set,
// so a bad op never reaches the wire.
func (op AtomicOp) validate() {
	if op < AtomicSum || op > AtomicReplace {
		panic(fmt.Sprintf("dcgn: unknown AtomicOp %d", int(op)))
	}
}

// hostWindow asserts the window backs host memory — the precondition of
// every atomic.
func (w *osWindow) hostWindow() {
	if w.host == nil {
		panic(fmt.Sprintf("dcgn: one-sided atomics require a host window (window %d of rank %d is device memory)", w.key.id, w.key.rank))
	}
}

// atomicApply combines vals element-wise into the window starting at
// offset, clipping to whole elements inside the window. The
// read-modify-write runs under the window lock so concurrent atomics
// never lose updates. Reports elements applied and whether the span was
// clipped.
func (ns *nodeState) atomicApply(p transport.Proc, w *osWindow, offset int, op AtomicOp, vals []int64) (int, bool) {
	w.hostWindow()
	n := len(vals)
	clipped := false
	if offset < 0 || offset >= w.size {
		return 0, true
	}
	if avail := (w.size - offset) / 8; n > avail {
		n = avail
		clipped = true
	}
	ns.chargeMemcpy(p, 8*n)
	le := binary.LittleEndian
	w.mu.Lock()
	for i := 0; i < n; i++ {
		at := offset + 8*i
		old := int64(le.Uint64(w.host[at:]))
		le.PutUint64(w.host[at:], uint64(op.apply(old, vals[i])))
	}
	w.mu.Unlock()
	return n, clipped
}

// atomicFetch atomically reads the int64 at offset, stores op(old,
// operand) back, and returns the prior value. ok is false when the slot
// does not fit the window (nothing is applied).
func (ns *nodeState) atomicFetch(p transport.Proc, w *osWindow, offset int, op AtomicOp, operand int64) (int64, bool) {
	w.hostWindow()
	if offset < 0 || offset+8 > w.size {
		return 0, false
	}
	ns.chargeMemcpy(p, 8)
	le := binary.LittleEndian
	w.mu.Lock()
	old := int64(le.Uint64(w.host[offset:]))
	le.PutUint64(w.host[offset:], uint64(op.apply(old, operand)))
	w.mu.Unlock()
	return old, true
}

// osAccumFrom is the origin side of an accumulate on behalf of srcRank:
// doorbell charge, then local locked apply or an osAccum frame on the
// one-sided lane. Accumulates count in the put counters (they are
// put-class traffic) and in the target window's arrival count.
func (ns *nodeState) osAccumFrom(p transport.Proc, srcRank, dstRank, winID, offset int, op AtomicOp, vals []int64) error {
	osw := ns.osRequire()
	op.validate()
	p.SleepJit(ns.job.cfg.Params.DoorbellCost)
	atomic.AddInt64(&osw.putsSent, 1)
	if ns.met != nil {
		ns.met.osPuts.Add(1)
	}
	dstNode := ns.job.rmap.Node(dstRank)
	if dstNode == ns.node {
		w := osw.window(dstRank, winID)
		p.SleepJit(ns.job.cfg.Params.OneSidedApplyCost)
		_, clipped := ns.atomicApply(p, w, offset, op, vals)
		atomic.AddInt64(&osw.applied, 1)
		if clipped {
			atomic.AddInt64(&osw.truncated, 1)
		}
		w.arrive(clipped)
		return nil
	}
	payload := ns.job.pool.Get(8 * len(vals))
	le := binary.LittleEndian
	for i, v := range vals {
		le.PutUint64(payload[8*i:], uint64(v))
	}
	err := ns.osSendFrame(p, dstNode, &frame{
		kind: kindAccum, src: srcRank, dst: dstRank, payload: payload,
		os: osAddr{win: winID, offset: offset, postedNs: int64(p.Now()), aux: uint64(op)},
	})
	ns.job.pool.Put(payload)
	return err
}

// osFetchFrom is the origin side of a fetch-and-op on behalf of
// srcRank: it atomically combines operand into the int64 at offset of
// window (dstRank, winID) and returns the value the slot held before. A
// slot outside the window applies nothing and returns ErrTruncate.
// Fetches count in the get counters (they return a value).
func (ns *nodeState) osFetchFrom(p transport.Proc, srcRank, dstRank, winID, offset int, op AtomicOp, operand int64) (int64, error) {
	osw := ns.osRequire()
	op.validate()
	p.SleepJit(ns.job.cfg.Params.DoorbellCost)
	atomic.AddInt64(&osw.getsSent, 1)
	if ns.met != nil {
		ns.met.osGets.Add(1)
	}
	dstNode := ns.job.rmap.Node(dstRank)
	if dstNode == ns.node {
		w := osw.window(dstRank, winID)
		p.SleepJit(ns.job.cfg.Params.OneSidedApplyCost)
		old, ok := ns.atomicFetch(p, w, offset, op, operand)
		if !ok {
			atomic.AddInt64(&osw.truncated, 1)
			return 0, ErrTruncate
		}
		atomic.AddInt64(&osw.applied, 1)
		w.arrive(false)
		return old, nil
	}
	rep := make([]byte, 8)
	g := &osGet{dst: rep, done: ns.rt.NewEventID("os-fetch", srcRank)}
	osw.getMu.Lock()
	osw.nextToken++
	token := osw.nextToken
	osw.gets[token] = g
	osw.getMu.Unlock()
	var operandBuf [8]byte
	binary.LittleEndian.PutUint64(operandBuf[:], uint64(operand))
	f := &frame{
		kind: kindFetchReq, src: srcRank, dst: dstRank, payload: operandBuf[:],
		os: osAddr{win: winID, token: token, offset: offset, postedNs: int64(p.Now()), aux: uint64(op)},
	}
	if err := ns.osSendFrame(p, dstNode, f); err != nil {
		osw.getMu.Lock()
		delete(osw.gets, token)
		osw.getMu.Unlock()
		return 0, err
	}
	g.done.Wait(p)
	if g.err != nil {
		return 0, g.err
	}
	return int64(binary.LittleEndian.Uint64(rep)), nil
}

// osApplyAccum lands one accumulate in its target window under the
// window lock and counts the remote completion like a put.
func (ns *nodeState) osApplyAccum(p transport.Proc, f *frame) {
	osw := ns.osw
	w := osw.window(f.dst, f.os.win)
	p.SleepJit(ns.job.cfg.Params.OneSidedApplyCost)
	le := binary.LittleEndian
	vals := make([]int64, len(f.payload)/8)
	for i := range vals {
		vals[i] = int64(le.Uint64(f.payload[8*i:]))
	}
	_, clipped := ns.atomicApply(p, w, f.os.offset, AtomicOp(f.os.aux), vals)
	atomic.AddInt64(&osw.applied, 1)
	if clipped {
		atomic.AddInt64(&osw.truncated, 1)
	}
	ns.observeRemoteComplete(p, f)
	w.arrive(clipped)
}

// osApplyFetchReq serves one fetch-and-op request: combine under the
// window lock, then reply with the prior value from a spawned helper so
// the sink daemon never blocks in a transport send.
func (ns *nodeState) osApplyFetchReq(p transport.Proc, f *frame) {
	osw := ns.osw
	w := osw.window(f.dst, f.os.win)
	p.SleepJit(ns.job.cfg.Params.OneSidedApplyCost)
	if len(f.payload) < 8 {
		panic(fmt.Sprintf("dcgn: one-sided sink on node %d: fetch-and-op frame without operand", ns.node))
	}
	operand := int64(binary.LittleEndian.Uint64(f.payload))
	rep := &frame{kind: kindFetchRep, src: f.dst, dst: f.src, os: osAddr{win: f.os.win, token: f.os.token, postedNs: f.os.postedNs}}
	if ns.flowsOn && f.spanID != 0 {
		// The reply joins the requesting fetch's flow (span minted for the
		// serving rank, parent carried implicitly by trace membership).
		rep.traceID = f.traceID
		rep.spanID = ns.job.trace.newSpanID(f.dst)
	}
	old, ok := ns.atomicFetch(p, w, f.os.offset, AtomicOp(f.os.aux), operand)
	var buf []byte
	if ok {
		atomic.AddInt64(&osw.applied, 1)
		buf = ns.job.pool.Get(8)
		binary.LittleEndian.PutUint64(buf, uint64(old))
		rep.payload = buf
		w.arrive(false)
	} else {
		atomic.AddInt64(&osw.truncated, 1)
		rep.flags = flagTrunc
	}
	srcNode := ns.job.rmap.Node(f.src)
	ns.rt.SpawnID("os-fetchrep", ns.node, func(h transport.Proc) {
		// Best-effort on a closing transport, exactly like get replies:
		// under reliability the requester retransmits the request.
		_ = ns.osSendFrame(h, srcNode, rep)
		if buf != nil {
			ns.job.pool.Put(buf)
		}
	})
}

// --- CPU-kernel atomics API ---------------------------------------------

// Accumulate atomically combines vals element-wise into window winID of
// rank dst starting at offset (int64 elements, little-endian), using op
// — MPI_Accumulate over the one-sided lane. Concurrent Accumulates from
// any set of origins never lose updates. Spans over-running the window
// are clipped to whole elements target-side, like Put truncation; the
// target observes completion via WinWait.
func (c *CPUCtx) Accumulate(dst, winID, offset int, op AtomicOp, vals []int64) error {
	return c.ns.osAccumFrom(c.tp, c.rank, dst, winID, offset, op, vals)
}

// FetchAndOp atomically combines operand into the int64 at offset of
// window winID of rank dst and returns the value the slot held before
// the update — MPI_Fetch_and_op. With AtomicReplace it is an atomic
// swap; with AtomicSum a fetch-and-add. A slot outside the window
// applies nothing and returns ErrTruncate.
func (c *CPUCtx) FetchAndOp(dst, winID, offset int, op AtomicOp, operand int64) (int64, error) {
	return c.ns.osFetchFrom(c.tp, c.rank, dst, winID, offset, op, operand)
}
