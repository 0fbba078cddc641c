package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/pcie"
	"dcgn/internal/sim"
)

// Mailbox layout: one fixed-size record per slot, resident in device global
// memory. Device kernels fill the descriptor and flip status to posted; a
// GPU-kernel thread on the host discovers it by polling over PCIe, services
// it, writes results back, and flips status to done (paper §3.2.3: "these
// calls don't interact with the network driver; they set regions of GPU
// memory that are monitored by a GPU-kernel thread").
const (
	mailboxBytes = 64

	mbStatus = 0  // u32: mbIdle | mbPosted | mbClaimed | mbDone
	mbOp     = 4  // u32: opKind
	mbPeer   = 8  // i64: peer rank / collective root
	mbPtr    = 16 // u64: device address of payload
	mbSize   = 24 // u64: payload length
	mbPtr2   = 32 // u64: secondary buffer (gather root destination / scatter root source)
	mbSize2  = 40 // u64: secondary buffer length
	mbResN   = 48 // u32: result byte count
	mbResSrc = 52 // i32: result source rank
	mbErr    = 56 // u32: error code
)

const (
	mbIdle uint32 = iota
	mbPosted
	mbClaimed
	mbDone
)

// Mailbox error codes.
const (
	mbOK uint32 = iota
	mbTrunc
)

// hostStage is the monitor-side state machine for one slot. The paper
// (§5.2) observes that "three separate communications with the source GPU
// must take place: the CPU polls GPU memory, the CPU copies the appropriate
// memory from the GPU, and ... the CPU tells the GPU that the message was
// sent" — each stage lands on a polling tick, which is where the large
// GPU-sourced message overheads come from.
type hostStage int

const (
	stageIdle hostStage = iota
	stageDiscovered
	stageRelayed
)

// slotState is the host-side bookkeeping for one device slot.
type slotState struct {
	rank int
	mb   device.Ptr

	stage hostStage
	// Parsed descriptor, captured at discovery.
	op          opKind
	peerRaw     int64
	ptr, ptr2   device.Ptr
	size, size2 int
	req         *request
	doneReady   bool
	// wake is fired when the done-flag write lands in device memory; the
	// spinning device block observes it then. (Timing-equivalent stand-in
	// for the device's spin loop on the status word.)
	wake completion
}

// gpuThread is one GPU-kernel thread (paper §3.2.2): it owns one device,
// launches kernels on it, and monitors its memory for communication
// requests with sleep-based polling.
type gpuThread struct {
	ns    *nodeState
	index int // device index within the node
	dev   *device.Device
	slots []*slotState

	// doorbell is non-nil in FutureHW.DeviceSignal mode: the device rings
	// it on post instead of waiting to be polled.
	doorbell *sim.Queue[*slotState]

	// Triggered one-sided state (gputrigger.go), nil until the device's
	// first triggered call (requireNIC): the device-resident descriptor
	// ring, the NIC doorbell, and registered persistent descriptors.
	trig    []*trigSlot
	trigQ   *sim.Queue[*trigToken]
	persist []*osPersist

	// polls counts poll iterations (the CPU-load metric of the ablation),
	// hits the polls that progressed at least one slot, and signals the
	// doorbell-serviced requests (FutureHW.DeviceSignal), the poll-free
	// complement of polls. Atomics so a mid-run snapshot may read them;
	// each has one writer, the monitor (or the doorbell daemon).
	polls, hits, signals atomic.Int64
}

// newGPUThread allocates the mailbox region and registers slot ranks.
func newGPUThread(ns *nodeState, index int, dev *device.Device) *gpuThread {
	gt := &gpuThread{ns: ns, index: index, dev: dev}
	rm := ns.job.rmap
	for s := 0; s < rm.Spec(ns.node).SlotsPerGPU; s++ {
		gt.slots = append(gt.slots, &slotState{
			rank: rm.GPURank(ns.node, index, s),
			mb:   dev.Mem().MustAlloc(mailboxBytes),
		})
	}
	return gt
}

// startMonitor spawns the polling daemon. Monitors of different GPUs are
// staggered, and every monitor gets a (seeded) random initial phase: on a
// real cluster the polling threads of different nodes are never
// phase-aligned, which is why multi-node GPU-only barriers in Table 1 are
// slower than single-node ones — some node's arrival always just missed a
// poll tick.
func (gt *gpuThread) startMonitor() {
	cfg := gt.ns.job.cfg
	if cfg.FutureHW.DeviceSignal {
		// Future hardware (§7): the device signals the CPU, so the
		// GPU-kernel thread blocks on a doorbell instead of polling.
		gt.doorbell = sim.NewQueue[*slotState](gt.ns.sim, fmt.Sprintf("doorbell:%d.%d", gt.ns.node, gt.index))
		gt.ns.sim.SpawnDaemon(fmt.Sprintf("gpu-sig:%d.%d", gt.ns.node, gt.index), func(p *sim.Proc) {
			for {
				ss := gt.doorbell.Get(p)
				gt.serviceSignaled(p, ss)
			}
		})
		return
	}
	nodeGPUs := gt.ns.job.rmap.Spec(gt.ns.node).GPUs
	offset := cfg.PollInterval * time.Duration(gt.index) / time.Duration(max(1, nodeGPUs))
	offset += time.Duration(gt.monitorPhase(int64(cfg.PollInterval)))
	gt.ns.sim.SpawnDaemon(fmt.Sprintf("gpu-mon:%d.%d", gt.ns.node, gt.index), func(p *sim.Proc) {
		p.Sleep(offset)
		for {
			gt.ns.charge(p, cfg.PollInterval)
			gt.poll(p)
		}
	})
}

// monitorPhase returns the monitor's random initial phase in [0, span): the
// next draw of the job's phase stream, taken once per device in (node,
// device) bring-up order, before anything runs — an order no shard count
// changes. The stream is seeded like the job's jitter stream (1 when there
// is no jitter configuration) and built on first use: a CPU-only job never
// pays for the ~5 kB of generator state.
func (gt *gpuThread) monitorPhase(span int64) int64 {
	j := gt.ns.job
	if j.phases == nil {
		seed := j.cfg.JitterSeed
		if seed == 0 && j.cfg.JitterFrac <= 0 {
			seed = 1
		}
		j.phases = rand.New(rand.NewSource(seed))
	}
	return j.phases.Int63n(span)
}

// payloadBus returns the bus interface used for payload staging: the
// normal DMA path, or the GPUDirect path with doorbell-cheap setup.
func (gt *gpuThread) payloadBus() device.BusLike {
	if gt.ns.job.cfg.FutureHW.GPUDirect {
		return directBus{gt.ns.bus}
	}
	return gt.ns.bus
}

// serviceSignaled services one doorbell-announced request end to end:
// claim, stage, relay, and (on a helper) immediate completion write-back —
// no poll-tick alignment anywhere.
func (gt *gpuThread) serviceSignaled(p *sim.Proc, ss *slotState) {
	mb := gt.dev.Bytes(ss.mb, mailboxBytes)
	if binary.LittleEndian.Uint32(mb[mbStatus:]) != mbPosted {
		panic("dcgn: doorbell rung without posted request")
	}
	gt.claim(p, ss, mb, 4+mailboxBytes) // one transaction: claim + descriptor read
	gt.signals.Store(gt.signals.Load() + 1)
	req := gt.relay(p, ss)
	gt.ns.sim.SpawnID("gpu-sig-wb", ss.rank, func(h *sim.Proc) {
		req.done.Wait(h)
		gt.writeBack(h, ss, mb)
	}, nil)
}

// poll performs one polling round: a control read of the whole mailbox
// region, then one stage of progress per active slot.
func (gt *gpuThread) poll(p *sim.Proc) {
	gt.polls.Store(gt.polls.Load() + 1)
	gt.ns.bus.Ctl(p, len(gt.slots)*mailboxBytes)
	hit := false
	for _, ss := range gt.slots {
		if gt.advance(p, ss) {
			hit = true
		}
	}
	if hit {
		gt.hits.Store(gt.hits.Load() + 1)
	}
}

// advance moves one slot's state machine one stage. It reports whether any
// work was done.
func (gt *gpuThread) advance(p *sim.Proc, ss *slotState) bool {
	le := binary.LittleEndian
	mb := gt.dev.Bytes(ss.mb, mailboxBytes)
	switch ss.stage {
	case stageIdle:
		if le.Uint32(mb[mbStatus:]) != mbPosted {
			return false
		}
		// Stage 1: discovery. Claim the request and capture the
		// descriptor (it travelled with the poll read).
		gt.claim(p, ss, mb, 4)
		ss.stage = stageDiscovered
		return true

	case stageDiscovered:
		// Stage 2: stage outbound payloads device -> host (Fig. 2 step 1)
		// and relay the request to the comm thread.
		ss.doneReady = false
		gt.relay(p, ss)
		// A tiny stackless helper marks the slot ready for its completion
		// stage; the write-back itself happens on a poll tick (stage 3).
		gt.ns.sim.SpawnStep("gpu-done", ss.rank, markDone, ss)
		ss.stage = stageRelayed
		return true

	case stageRelayed:
		if !ss.doneReady {
			return false
		}
		// Stage 3: completion write-back.
		gt.writeBack(p, ss, mb)
		return true
	}
	return false
}

// markDone is the step of a slot's gpu-done helper (Proc.Arg is the slot):
// it marks the slot ready for its completion write-back once the request
// it relayed is done.
func markDone(h *sim.Proc) {
	ss := h.Arg().(*slotState)
	ss.doneReady = (*sim.Event)(ss.req.done.(*simEvent)).WaitStep(h)
}

// claim takes a posted request for the host: the claimed flag is written in
// an n-byte control transaction, and the descriptor fields — which travelled
// with it, or with the poll read before it — are captured into the slot
// state.
func (gt *gpuThread) claim(p *sim.Proc, ss *slotState, mb []byte, n int) {
	le := binary.LittleEndian
	le.PutUint32(mb[mbStatus:], mbClaimed)
	gt.ns.bus.Ctl(p, n)
	ss.op = opKind(le.Uint32(mb[mbOp:]))
	ss.peerRaw = int64(le.Uint64(mb[mbPeer:]))
	ss.ptr = device.Ptr(le.Uint64(mb[mbPtr:]))
	ss.size = int(le.Uint64(mb[mbSize:]))
	ss.ptr2 = device.Ptr(le.Uint64(mb[mbPtr2:]))
	ss.size2 = int(le.Uint64(mb[mbSize2:]))
}

// relay hands a claimed request to the comm thread: outbound payloads staged
// device -> host (buildRequest), the enqueue charged, the request recorded
// and posted.
func (gt *gpuThread) relay(p *sim.Proc, ss *slotState) *request {
	req := gt.buildRequest(p, ss)
	ss.req = req
	gt.ns.charge(p, gt.ns.job.cfg.Params.EnqueueCost)
	gt.ns.job.trace.record(gt.ns.rt, req)
	gt.ns.intake.postRequest(req)
	return req
}

// buildRequest stages outbound payloads device -> host (Fig. 2 step 1) and
// creates the comm-thread request for a parsed descriptor. Host staging
// buffers come from the job pool; writeBack returns them once results have
// been copied back to device memory. Pooled buffers are never zeroed, so
// receive-side staging may carry stale bytes — writeBack only copies the
// delivered prefix, exactly as the device would only see DMA'd bytes.
func (gt *gpuThread) buildRequest(p *sim.Proc, ss *slotState) *request {
	bus := gt.payloadBus()
	pool := gt.ns.job.pool
	peer := int(ss.peerRaw)
	req := &request{
		op:   ss.op,
		rank: ss.rank,
		done: gt.ns.rt.NewEventID("gpu-req", ss.rank),
		ns:   gt.ns,
		gpu:  true,
	}
	switch ss.op {
	case opSend:
		req.peer = peer
		gt.stageSend(p, req, ss.ptr, ss.size)
	case opRecv:
		req.peer = peer
		req.buf = pool.Get(ss.size)
	case opSendrecv:
		req.peer, req.peer2 = unpackPeers(ss.peerRaw)
		gt.stageSend(p, req, ss.ptr, ss.size)
		req.recvBuf = pool.Get(ss.size2)
	case opBarrier:
		req.peer = peer
	case opBcast:
		req.peer = peer
		req.buf = pool.Get(ss.size)
		if ss.rank == peer { // this slot is the broadcast root
			gt.dev.CopyOut(p, bus, ss.ptr, req.buf)
		}
	case opGather:
		req.peer = peer
		req.buf = pool.Get(ss.size)
		gt.dev.CopyOut(p, bus, ss.ptr, req.buf)
		if ss.rank == peer {
			req.recvBuf = pool.Get(ss.size2)
		}
	case opScatter:
		req.peer = peer
		req.recvBuf = pool.Get(ss.size)
		if ss.rank == peer {
			req.buf = pool.Get(ss.size2)
			gt.dev.CopyOut(p, bus, ss.ptr2, req.buf)
		}
	case opAlltoall:
		req.buf = pool.Get(ss.size)
		gt.dev.CopyOut(p, bus, ss.ptr, req.buf)
		req.recvBuf = pool.Get(ss.size2)
	default:
		panic(fmt.Sprintf("dcgn: bad mailbox op %d on rank %d", ss.op, ss.rank))
	}
	return req
}

// stageSend copies the n outbound bytes at ptr device -> host into req.buf
// (Fig. 2 step 1). For a peer on another node that staging buffer is the
// wire frame itself: the payload lands behind room for the data header,
// which handleSend writes in place, so no host copy comes between the PCIe
// transfer and the wire.
func (gt *gpuThread) stageSend(p *sim.Proc, req *request, ptr device.Ptr, n int) {
	req.sendFrame = gt.ns.job.rmap.Node(req.peer) != gt.ns.node
	off := 0
	if req.sendFrame {
		off = gt.ns.dataHdr()
	}
	req.buf = gt.ns.job.pool.Get(off + n)
	gt.dev.CopyOut(p, gt.payloadBus(), ptr, req.buf[off:])
}

// writeBack copies inbound payloads host -> device, writes result words and
// the done flag, and releases the spinning block (Fig. 2 step 7).
func (gt *gpuThread) writeBack(p *sim.Proc, ss *slotState, mb []byte) {
	le := binary.LittleEndian
	bus := gt.payloadBus()
	req := ss.req
	switch ss.op {
	case opRecv, opSendrecv:
		ptr, in := ss.ptr, req.buf
		if ss.op == opSendrecv {
			ptr, in = ss.ptr2, req.recvBuf
		}
		if req.recvFrame {
			in = req.recvBuf[gt.ns.dataHdr():]
		}
		gt.dev.CopyIn(p, bus, ptr, in[:req.status.Bytes])
	case opBcast:
		if ss.rank != req.peer {
			gt.dev.CopyIn(p, bus, ss.ptr, req.buf)
		}
	case opGather:
		if ss.rank == req.peer {
			gt.dev.CopyIn(p, bus, ss.ptr2, req.recvBuf)
		}
	case opScatter:
		gt.dev.CopyIn(p, bus, ss.ptr, req.recvBuf)
	case opAlltoall:
		gt.dev.CopyIn(p, bus, ss.ptr2, req.recvBuf)
	}
	errCode := mbOK
	if req.err == ErrTruncate {
		errCode = mbTrunc
	} else if req.err != nil {
		panic(fmt.Sprintf("dcgn: GPU request failed: %v", req.err))
	}
	le.PutUint32(mb[mbResN:], uint32(req.status.Bytes))
	le.PutUint32(mb[mbResSrc:], uint32(int32(req.status.Source)))
	le.PutUint32(mb[mbErr:], errCode)
	le.PutUint32(mb[mbStatus:], mbDone)
	gt.ns.bus.Ctl(p, 20)
	// The host staging buffers are done once results are back on the
	// device: the lifecycle span (if any) was recorded inside complete(),
	// before this write-back ran, so nothing reads them after the pool
	// reclaims the storage. A sendFrame buffer is the wire's, not ours.
	if !req.sendFrame {
		gt.ns.job.pool.Put(req.buf)
	}
	gt.ns.job.pool.Put(req.recvBuf)
	ss.req = nil
	ss.stage = stageIdle
	ss.wake.Fire()
}

// directBus is the GPUDirect payload path: DMA setup collapses to doorbell
// cost because buffers are pinned and the device pushes/pulls directly.
type directBus struct {
	bus *pcie.Bus
}

func (d directBus) Down(p *sim.Proc, n int) { d.bus.Direct(p, n) }
func (d directBus) Up(p *sim.Proc, n int)   { d.bus.Direct(p, n) }
