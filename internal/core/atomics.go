package core

import (
	"encoding/binary"
	"fmt"

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
// frames serialize on the target's sink daemon, and a same-node origin
// runs the same target-side function under the same per-window lock, so
// concurrent Accumulates from many origins always combine (never lose
// updates). A plain Put racing an atomic is not atomic, exactly as in MPI.
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

// accumulate combines vals — little-endian int64 operands, as the frame
// carries them, already clipped to whole elements inside the window —
// element-wise into the window starting at offset. The read-modify-write
// runs under the window lock so concurrent atomics never lose updates.
func (w *osWindow) accumulate(offset int, op AtomicOp, vals []byte) {
	le := binary.LittleEndian
	w.mu.Lock()
	for i := 0; i < len(vals); i += 8 {
		old := int64(le.Uint64(w.host[offset+i:]))
		le.PutUint64(w.host[offset+i:], uint64(op.apply(old, int64(le.Uint64(vals[i:])))))
	}
	w.mu.Unlock()
}

// fetchAndOp atomically reads the int64 at offset into prior and stores
// op(old, operand) back.
func (w *osWindow) fetchAndOp(offset int, op AtomicOp, prior, operand []byte) {
	le := binary.LittleEndian
	w.mu.Lock()
	copy(prior, w.host[offset:offset+8])
	le.PutUint64(w.host[offset:], uint64(op.apply(int64(le.Uint64(prior)), int64(le.Uint64(operand)))))
	w.mu.Unlock()
}

// osAccumFrom is the origin side of an accumulate on behalf of srcRank:
// doorbell charge, then delivery of the operands in wire form. Accumulates
// count in the put counters (they are put-class traffic) and in the target
// window's arrival count.
func (ns *nodeState) osAccumFrom(p transport.Proc, srcRank, dstRank, winID, offset int, op AtomicOp, vals []int64) error {
	ns.osRequire()
	op.validate()
	ns.charge(p, ns.job.cfg.Params.DoorbellCost)
	ns.osPuts.Add(1)
	payload := ns.job.pool.Get(8 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(payload[8*i:], uint64(v))
	}
	_, err := ns.osDeliver(p, &frame{
		kind: kindAccum, src: srcRank, dst: dstRank, payload: payload,
		os: osAddr{win: winID, offset: offset, aux: uint64(op)},
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
	ns.osRequire()
	op.validate()
	ns.charge(p, ns.job.cfg.Params.DoorbellCost)
	ns.osGets.Add(1)
	buf := make([]byte, 16) // operand out, prior value back
	binary.LittleEndian.PutUint64(buf, uint64(operand))
	_, _, err := ns.osRequest(p, &frame{
		kind: kindFetchReq, src: srcRank, dst: dstRank, payload: buf[:8],
		os: osAddr{win: winID, offset: offset, aux: uint64(op)},
	}, buf[8:])
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[8:])), nil
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
