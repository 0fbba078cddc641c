package core

import (
	"encoding/binary"
	"fmt"

	"dcgn/internal/device"
)

// GPUCtx is the device-side DCGN API, available inside GPU kernels
// (the paper's dcgn::gpu namespace). Each communication call takes a slot
// index; the developer decides which blocks/threads drive which slots
// (paper Fig. 1 uses block 0, thread 0). Payloads live in device global
// memory — "for communication, we have to use global memory" (Fig. 1).
//
// A slot supports one outstanding operation at a time; posting to a busy
// slot panics (the hardware analogue would be memory corruption).
type GPUCtx struct {
	b    *device.Block
	gt   *gpuThread
	args map[string]any
}

// Block exposes the executing device block (index, dimensions, Charge).
func (g *GPUCtx) Block() *device.Block { return g.b }

// Device returns the device the kernel runs on.
func (g *GPUCtx) Device() *device.Device { return g.b.Device() }

// Arg returns a named value published by the GPU setup callback (device
// buffer pointers, problem parameters).
func (g *GPUCtx) Arg(name string) any {
	v, ok := g.args[name]
	if !ok {
		panic(fmt.Sprintf("dcgn: GPU kernel arg %q not set", name))
	}
	return v
}

// Slots returns the number of communication slots on this device.
func (g *GPUCtx) Slots() int { return len(g.gt.slots) }

// Rank returns the virtual rank bound to a slot (dcgn::gpu::getRank).
func (g *GPUCtx) Rank(slot int) int { return g.gt.slots[slot].rank }

// Size returns the total number of ranks in the job.
func (g *GPUCtx) Size() int { return g.gt.ns.job.rmap.Total() }

// Send transmits n bytes of device memory at ptr to rank dst
// (dcgn::gpu::send). It blocks the calling block until the GPU-kernel
// thread has polled the request, relayed it, and signaled completion.
func (g *GPUCtx) Send(slot, dst int, ptr device.Ptr, n int) error {
	_, err := g.post(slot, opSend, dst, ptr, n, device.Null, 0)
	return err
}

// Recv receives up to n bytes into device memory at ptr from rank src (or
// AnySource), returning the delivery status (dcgn::gpu::recv).
func (g *GPUCtx) Recv(slot, src int, ptr device.Ptr, n int) (CommStatus, error) {
	return g.post(slot, opRecv, src, ptr, n, device.Null, 0)
}

// SendRecv posts a send of n bytes at sendPtr to dst and a receive of up to
// n2 bytes from src (or AnySource) into recvPtr as ONE mailbox transaction —
// a single polling cycle instead of two (§5.1). sendPtr and recvPtr may be
// equal for replace semantics when n == n2.
func (g *GPUCtx) SendRecv(slot, dst int, sendPtr device.Ptr, n int, src int, recvPtr device.Ptr, n2 int) (CommStatus, error) {
	peer := packPeers(dst, src)
	return g.postRaw(slot, opSendrecv, peer, sendPtr, n, recvPtr, n2)
}

// Barrier joins the global barrier on behalf of the slot's rank.
func (g *GPUCtx) Barrier(slot int) {
	if _, err := g.post(slot, opBarrier, 0, device.Null, 0, device.Null, 0); err != nil {
		panic(fmt.Sprintf("dcgn: gpu barrier: %v", err))
	}
}

// Bcast joins a broadcast rooted at rank root; ptr names n bytes of device
// memory that supply the payload (at the root) or receive it (elsewhere).
func (g *GPUCtx) Bcast(slot, root int, ptr device.Ptr, n int) error {
	_, err := g.post(slot, opBcast, root, ptr, n, device.Null, 0)
	return err
}

// Gather contributes n bytes at ptr to a gather rooted at rank root. At the
// root, rootPtr receives Size()*n bytes in rank order.
func (g *GPUCtx) Gather(slot, root int, ptr device.Ptr, n int, rootPtr device.Ptr) error {
	total := 0
	if g.Rank(slot) == root {
		total = g.Size() * n
	}
	_, err := g.post(slot, opGather, root, ptr, n, rootPtr, total)
	return err
}

// AllToAll exchanges per-rank chunks: sendPtr names Size()*chunkN bytes of
// device memory (one chunkN-byte chunk per destination rank, in rank
// order) and recvPtr receives Size()*chunkN bytes (one chunk per source
// rank). One mailbox transaction.
func (g *GPUCtx) AllToAll(slot int, sendPtr device.Ptr, chunkN int, recvPtr device.Ptr) error {
	total := g.Size() * chunkN
	_, err := g.post(slot, opAlltoall, 0, sendPtr, total, recvPtr, total)
	return err
}

// Scatter receives this rank's n-byte chunk of a scatter rooted at rank
// root into ptr. At the root, rootPtr supplies Size()*n bytes in rank
// order.
func (g *GPUCtx) Scatter(slot, root int, ptr device.Ptr, n int, rootPtr device.Ptr) error {
	total := 0
	if g.Rank(slot) == root {
		total = g.Size() * n
	}
	_, err := g.post(slot, opScatter, root, ptr, n, rootPtr, total)
	return err
}

// post writes the mailbox descriptor, flips the status word, and blocks
// until the host signals completion — the simulated equivalent of the
// device's spin loop on the status flag.
func (g *GPUCtx) post(slot int, op opKind, peer int, ptr device.Ptr, n int, ptr2 device.Ptr, n2 int) (CommStatus, error) {
	return g.postRaw(slot, op, int64(peer), ptr, n, ptr2, n2)
}

// postRaw is post with a pre-encoded peer word (sendrecv packs two ranks).
func (g *GPUCtx) postRaw(slot int, op opKind, peer int64, ptr device.Ptr, n int, ptr2 device.Ptr, n2 int) (CommStatus, error) {
	if slot < 0 || slot >= len(g.gt.slots) {
		panic(fmt.Sprintf("dcgn: bad slot %d (device has %d)", slot, len(g.gt.slots)))
	}
	ss := g.gt.slots[slot]
	mb := g.b.Device().Bytes(ss.mb, mailboxBytes)
	le := binary.LittleEndian
	if le.Uint32(mb[mbStatus:]) != mbIdle {
		panic(fmt.Sprintf("dcgn: slot %d on %s posted while busy (one outstanding op per slot)", slot, g.b.Device().Name()))
	}
	le.PutUint32(mb[mbOp:], uint32(op))
	le.PutUint64(mb[mbPeer:], uint64(peer))
	le.PutUint64(mb[mbPtr:], uint64(ptr))
	le.PutUint64(mb[mbSize:], uint64(n))
	le.PutUint64(mb[mbPtr2:], uint64(ptr2))
	le.PutUint64(mb[mbSize2:], uint64(n2))
	ss.wake = g.gt.ns.rt.NewEventID("slot-wake", ss.rank)
	le.PutUint32(mb[mbStatus:], mbPosted)
	if g.gt.doorbell != nil {
		// Future hardware: the device signals the CPU (§7) instead of
		// waiting for the next poll.
		g.gt.doorbell.Put(ss)
	}

	ss.wake.Wait(g.b.Proc())

	if le.Uint32(mb[mbStatus:]) != mbDone {
		panic("dcgn: slot woke without done flag")
	}
	st := CommStatus{
		Source: int(int32(le.Uint32(mb[mbResSrc:]))),
		Bytes:  int(le.Uint32(mb[mbResN:])),
	}
	var err error
	switch le.Uint32(mb[mbErr:]) {
	case mbTrunc:
		err = ErrTruncate
	case mbBadRank:
		err = ErrBadRank
	}
	le.PutUint32(mb[mbStatus:], mbIdle)
	return st, err
}
