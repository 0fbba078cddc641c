package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"dcgn/internal/device"
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
	mbBadRank
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
	gt   *gpuThread
	rank int
	mb   device.Ptr

	stage hostStage
	// Parsed descriptor, captured at discovery.
	op          opKind
	peerRaw     int64
	ptr, ptr2   device.Ptr
	size, size2 int
	// req is the request the slot's one outstanding operation relays, made
	// again for each (buildRequest).
	req       simRequest
	doneReady bool
	// at is where the slot's service stands between the bus transfers it
	// waits on (claimStep, relayStep, writeBackStep), and xptr/xbuf/xfer
	// the one payload transfer the service has in flight: device memory at
	// xptr to or from the host bytes xbuf.
	at   uint8
	xptr device.Ptr
	xbuf []byte
	xfer bool
	// wake is fired when the done-flag write lands in device memory; the
	// spinning device block observes it then. (Timing-equivalent stand-in
	// for the device's spin loop on the status word.) Made again for each
	// operation, as req is.
	wake sim.Event
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
			gt:   gt,
			rank: rm.GPURank(ns.node, index, s),
			mb:   dev.Mem().MustAlloc(mailboxBytes),
		})
	}
	return gt
}

// startMonitor spawns the polling daemon, a stackless proc (gpuMon).
// Monitors of different GPUs are staggered, and every monitor gets a
// (seeded) random initial phase: on a real cluster the polling threads of
// different nodes are never phase-aligned, which is why multi-node GPU-only
// barriers in Table 1 are slower than single-node ones — some node's
// arrival always just missed a poll tick.
func (gt *gpuThread) startMonitor() {
	cfg := gt.ns.job.cfg
	if cfg.FutureHW.DeviceSignal {
		// Future hardware (§7): the device signals the CPU, so the
		// GPU-kernel thread waits on a doorbell instead of polling.
		gt.doorbell = sim.NewQueue[*slotState](gt.ns.sim, fmt.Sprintf("doorbell:%d.%d", gt.ns.node, gt.index))
		gt.ns.sim.SpawnStepDaemon(fmt.Sprintf("gpu-sig:%d.%d", gt.ns.node, gt.index), sim.NoID, sigStep, &gpuSig{gt: gt})
		return
	}
	nodeGPUs := gt.ns.job.rmap.Spec(gt.ns.node).GPUs
	offset := cfg.PollInterval * time.Duration(gt.index) / time.Duration(max(1, nodeGPUs))
	offset += time.Duration(gt.monitorPhase(int64(cfg.PollInterval)))
	gt.ns.sim.SpawnStepDaemon(fmt.Sprintf("gpu-mon:%d.%d", gt.ns.node, gt.index), sim.NoID, monStep, &gpuMon{gt: gt, offset: offset})
}

// gpuMon is a GPU's polling monitor: after its initial phase offset it
// polls every PollInterval — a control read of the whole mailbox region,
// then one stage of progress per active slot (advance), slot after slot.
type gpuMon struct {
	gt     *gpuThread
	offset time.Duration
	phase  uint8
	slot   int  // the slot being advanced
	hit    bool // whether this poll has progressed a slot
}

// The phases of a gpuMon.
const (
	monStart uint8 = iota // sleep the initial phase offset
	monTick               // sleep one poll interval
	monPoll               // read the mailbox region
	monSlots              // the read has landed: advance slot m.slot
)

// monStep is the step of a gpu-mon daemon (Proc.Arg is its gpuMon).
func monStep(p *sim.Proc) {
	m := p.Arg().(*gpuMon)
	gt := m.gt
	for {
		switch m.phase {
		case monStart:
			m.phase = monTick
			p.SleepStep(m.offset)
			return
		case monTick:
			m.phase = monPoll
			sleepStep(p, gt.ns.jit, gt.ns.job.cfg.PollInterval)
			return
		case monPoll:
			gt.polls.Store(gt.polls.Load() + 1)
			m.phase, m.slot, m.hit = monSlots, 0, false
			gt.ns.bus.CtlStep(p, len(gt.slots)*mailboxBytes)
			return
		case monSlots:
			for ; m.slot < len(gt.slots); m.slot++ {
				hit, done := gt.advance(p, gt.slots[m.slot])
				m.hit = m.hit || hit
				if !done {
					return
				}
			}
			if m.hit {
				gt.hits.Store(gt.hits.Load() + 1)
			}
			m.phase = monTick
		}
	}
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

// xferStep starts an n-byte payload transfer as a step form: device ->
// host when up, else host -> device, on the normal DMA path or, with
// GPUDirect, the doorbell-cheap direct one.
func (gt *gpuThread) xferStep(p *sim.Proc, up bool, n int) {
	bus := gt.ns.bus
	switch {
	case gt.ns.job.cfg.FutureHW.GPUDirect:
		bus.DirectStep(p, n)
	case up:
		bus.UpStep(p, n)
	default:
		bus.DownStep(p, n)
	}
}

// gpuSig is a GPU's doorbell daemon (FutureHW.DeviceSignal): it services
// each doorbell-announced request end to end — claim, stage, relay, and
// (on a gpu-sig-wb helper) immediate completion write-back, with no
// poll-tick alignment anywhere.
type gpuSig struct {
	gt      *gpuThread
	ss      *slotState
	claimed bool
}

// sigStep is the step of a gpu-sig daemon (Proc.Arg is its gpuSig).
func sigStep(p *sim.Proc) {
	g := p.Arg().(*gpuSig)
	gt := g.gt
	for {
		if g.ss == nil && !gt.doorbell.GetStep(p, &g.ss) {
			return
		}
		ss := g.ss
		if !g.claimed {
			if ss.at == 0 && binary.LittleEndian.Uint32(gt.dev.Bytes(ss.mb, mailboxBytes)[mbStatus:]) != mbPosted {
				panic("dcgn: doorbell rung without posted request")
			}
			if !gt.claimStep(p, ss, 4+mailboxBytes) { // one transaction: claim + descriptor read
				return
			}
			g.claimed = true
			gt.signals.Store(gt.signals.Load() + 1)
		}
		if !gt.relayStep(p, ss) {
			return
		}
		gt.ns.sim.SpawnStep("gpu-sig-wb", ss.rank, sigWriteBack, ss)
		g.ss, g.claimed = nil, false
	}
}

// sigWriteBack is the step of a gpu-sig-wb helper (Proc.Arg is the slot):
// the completion write-back once the relayed request is done.
func sigWriteBack(h *sim.Proc) {
	ss := h.Arg().(*slotState)
	if ss.req.ev.WaitStep(h) {
		ss.gt.writeBackStep(h, ss)
	}
}

// advance moves one slot's state machine one stage as a step form: it
// reports whether the stage does work (hit), and whether it is done; if it
// is not, it has registered p's next wake, after which the monitor calls
// it again.
func (gt *gpuThread) advance(p *sim.Proc, ss *slotState) (hit, done bool) {
	switch ss.stage {
	case stageIdle:
		if ss.at == 0 && binary.LittleEndian.Uint32(gt.dev.Bytes(ss.mb, mailboxBytes)[mbStatus:]) != mbPosted {
			return false, true
		}
		// Stage 1: discovery. Claim the request and capture the
		// descriptor (it travelled with the poll read).
		if !gt.claimStep(p, ss, 4) {
			return true, false
		}
		ss.stage = stageDiscovered
		return true, true

	case stageDiscovered:
		// Stage 2: stage outbound payloads device -> host (Fig. 2 step 1)
		// and relay the request to the comm thread.
		ss.doneReady = false
		if !gt.relayStep(p, ss) {
			return true, false
		}
		// A tiny stackless helper marks the slot ready for its completion
		// stage; the write-back itself happens on a poll tick (stage 3).
		gt.ns.sim.SpawnStep("gpu-done", ss.rank, markDone, ss)
		ss.stage = stageRelayed
		return true, true

	case stageRelayed:
		if !ss.doneReady {
			return false, true
		}
		// Stage 3: completion write-back.
		return true, gt.writeBackStep(p, ss)
	}
	return false, true
}

// markDone is the step of a slot's gpu-done helper (Proc.Arg is the slot):
// it marks the slot ready for its completion write-back once the request
// it relayed is done.
func markDone(h *sim.Proc) {
	ss := h.Arg().(*slotState)
	ss.doneReady = ss.req.ev.WaitStep(h)
}

// The points a slot's service stands at (slotState.at) while it waits on
// the bus or a charge; 0 is between services.
const (
	atClaim    uint8 = iota + 1 // the claim's control write is landing
	atStage                     // the outbound payload is crossing the bus
	atEnqueue                   // the enqueue cost is being charged
	atCopyBack                  // the results are crossing the bus
	atFlag                      // the done flag's control write is landing
)

// claimStep takes a posted request for the host as a step form: the claimed
// flag is written in an n-byte control transaction, and once it has landed
// the descriptor fields — which travelled with it, or with the poll read
// before it — are captured into the slot state.
func (gt *gpuThread) claimStep(p *sim.Proc, ss *slotState, n int) bool {
	le := binary.LittleEndian
	mb := gt.dev.Bytes(ss.mb, mailboxBytes)
	if ss.at == 0 {
		le.PutUint32(mb[mbStatus:], mbClaimed)
		ss.at = atClaim
		gt.ns.bus.CtlStep(p, n)
		return false
	}
	ss.at = 0
	ss.op = opKind(le.Uint32(mb[mbOp:]))
	ss.peerRaw = int64(le.Uint64(mb[mbPeer:]))
	ss.ptr = device.Ptr(le.Uint64(mb[mbPtr:]))
	ss.size = int(le.Uint64(mb[mbSize:]))
	ss.ptr2 = device.Ptr(le.Uint64(mb[mbPtr2:]))
	ss.size2 = int(le.Uint64(mb[mbSize2:]))
	return true
}

// relayStep hands a claimed request to the comm thread as a step form:
// outbound payloads staged device -> host (buildRequest), the enqueue
// charged, the request recorded and posted.
func (gt *gpuThread) relayStep(p *sim.Proc, ss *slotState) bool {
	switch ss.at {
	case 0:
		if gt.buildRequest(ss).done.Fired() {
			return true // it named a rank outside the job
		}
		if ss.xfer {
			ss.at = atStage
			gt.xferStep(p, true, len(ss.xbuf))
			return false
		}
		fallthrough
	case atStage:
		if ss.xfer {
			gt.dev.Mem().Read(ss.xptr, ss.xbuf)
			ss.xbuf, ss.xfer = nil, false
			gt.stageRecv(ss)
		}
		ss.at = atEnqueue
		if !sleepStep(p, gt.ns.jit, gt.ns.job.cfg.Params.EnqueueCost) {
			return false
		}
	}
	ss.at = 0
	gt.ns.job.trace.record(gt.ns.rt, &ss.req.request)
	gt.ns.intake.postRequest(&ss.req.request)
	return true
}

// queueXfer queues the slot's one payload transfer: the n bytes of device
// memory at ptr to or from the host bytes buf.
func (ss *slotState) queueXfer(ptr device.Ptr, buf []byte) {
	ss.xptr, ss.xbuf, ss.xfer = ptr, buf, true
}

// buildRequest makes the slot's request for a parsed descriptor and
// queues the staging of its outbound payload device -> host (Fig. 2 step
// 1), which relayStep makes; the receive staging of an op that stages a
// payload too is taken once the payload is off the device (stageRecv).
// Host staging buffers come from the job pool; writeBackStep returns them
// once results have been copied back to device memory. Pooled buffers are
// never zeroed, so receive-side staging may carry stale bytes —
// writeBackStep only copies the delivered prefix, exactly as the device
// would only see DMA'd bytes.
func (gt *gpuThread) buildRequest(ss *slotState) *request {
	pool := gt.ns.job.pool
	peer, peer2 := int(ss.peerRaw), 0
	if ss.op == opSendrecv {
		peer, peer2 = unpackPeers(ss.peerRaw)
	}
	req := ss.req.reset(gt.ns, "gpu-req", ss.rank)
	req.op, req.rank, req.gpu = ss.op, ss.rank, true
	if err := gt.ns.job.rmap.checkPeers(ss.op, peer, peer2); err != nil {
		req.complete(0, 0, err)
		return req
	}
	switch ss.op {
	case opSend:
		req.peer = peer
		gt.stageSend(ss, req)
	case opRecv:
		req.peer = peer
		req.buf = pool.Get(ss.size)
	case opSendrecv:
		req.peer, req.peer2 = peer, peer2
		gt.stageSend(ss, req)
	case opBarrier:
		req.peer = peer
	case opBcast:
		req.peer = peer
		req.buf = pool.Get(ss.size)
		if ss.rank == peer { // this slot is the broadcast root
			ss.queueXfer(ss.ptr, req.buf)
		}
	case opGather:
		req.peer = peer
		req.buf = pool.Get(ss.size)
		ss.queueXfer(ss.ptr, req.buf)
	case opScatter:
		req.peer = peer
		req.recvBuf = pool.Get(ss.size)
		if ss.rank == peer {
			req.buf = pool.Get(ss.size2)
			ss.queueXfer(ss.ptr2, req.buf)
		}
	case opAlltoall:
		req.buf = pool.Get(ss.size)
		ss.queueXfer(ss.ptr, req.buf)
	default:
		panic(fmt.Sprintf("dcgn: bad mailbox op %d on rank %d", ss.op, ss.rank))
	}
	return req
}

// stageRecv takes the receive staging of a request whose outbound payload
// is off the device: a combined exchange's, a gather root's, an
// all-to-all's.
func (gt *gpuThread) stageRecv(ss *slotState) {
	switch req := &ss.req; {
	case ss.op == opSendrecv, ss.op == opAlltoall, ss.op == opGather && ss.rank == req.peer:
		req.recvBuf = gt.ns.job.pool.Get(ss.size2)
	}
}

// stageSend queues the staging of the slot's outbound bytes device -> host
// into req.buf (Fig. 2 step 1). For a peer on another node that staging
// buffer is the wire frame itself: the payload lands behind room for the
// data header, which handleSend writes in place, so no host copy comes
// between the PCIe transfer and the wire. bufpool's header-room classes
// hold the header: a 1 MiB send stages in 1 MiB + 128 bytes, not 2 MiB.
func (gt *gpuThread) stageSend(ss *slotState, req *request) {
	req.sendFrame = gt.ns.job.rmap.Node(req.peer) != gt.ns.node
	off := 0
	if req.sendFrame {
		off = gt.ns.dataHdr()
	}
	req.buf = gt.ns.job.pool.Get(off + ss.size)
	ss.queueXfer(ss.ptr, req.buf[off:])
}

// writeBackStep copies inbound payloads host -> device, writes result words
// and the done flag, and releases the spinning block (Fig. 2 step 7), as a
// step form.
func (gt *gpuThread) writeBackStep(p *sim.Proc, ss *slotState) bool {
	le := binary.LittleEndian
	req := &ss.req.request
	mb := gt.dev.Bytes(ss.mb, mailboxBytes)
	switch ss.at {
	case 0:
		switch {
		case errors.Is(req.err, ErrBadRank):
			// nothing was staged, and nothing arrived
		case req.err == ErrTruncate, req.err == nil:
			if gt.results(ss, req) {
				ss.at = atCopyBack
				gt.xferStep(p, false, len(ss.xbuf))
				return false
			}
		default:
			panic(fmt.Sprintf("dcgn: GPU request failed: %v", req.err))
		}
		fallthrough
	case atCopyBack:
		if ss.xfer {
			copy(gt.dev.Bytes(ss.xptr, len(ss.xbuf)), ss.xbuf)
			ss.xbuf, ss.xfer = nil, false
		}
		errCode := mbOK
		switch {
		case errors.Is(req.err, ErrBadRank):
			errCode = mbBadRank
		case req.err == ErrTruncate:
			errCode = mbTrunc
		}
		le.PutUint32(mb[mbResN:], uint32(req.status.Bytes))
		le.PutUint32(mb[mbResSrc:], uint32(int32(req.status.Source)))
		le.PutUint32(mb[mbErr:], errCode)
		le.PutUint32(mb[mbStatus:], mbDone)
		ss.at = atFlag
		gt.ns.bus.CtlStep(p, 20)
		return false
	}
	// The host staging buffers are done once results are back on the
	// device: the lifecycle span (if any) was recorded inside complete(),
	// before this write-back ran, so nothing reads them after the pool
	// reclaims the storage. A sendFrame buffer is the wire's, not ours.
	ss.at = 0
	if !req.sendFrame {
		gt.ns.job.pool.Put(req.buf)
	}
	gt.ns.job.pool.Put(req.recvBuf)
	req.buf, req.recvBuf = nil, nil // the pool's again: the idle slot must not pin them
	ss.stage = stageIdle
	ss.wake.Fire()
	return true
}

// results queues the copy of a completed request's results host -> device
// — what it received, or the collective's output — and reports whether
// there is one.
func (gt *gpuThread) results(ss *slotState, req *request) bool {
	switch ss.op {
	case opRecv, opSendrecv:
		ptr, in := ss.ptr, req.buf
		if ss.op == opSendrecv {
			ptr, in = ss.ptr2, req.recvBuf
		}
		if req.recvFrame {
			in = req.recvBuf[gt.ns.dataHdr():]
		}
		ss.queueXfer(ptr, in[:req.status.Bytes])
	case opBcast:
		if ss.rank == req.peer {
			return false
		}
		ss.queueXfer(ss.ptr, req.buf)
	case opGather:
		if ss.rank != req.peer {
			return false
		}
		ss.queueXfer(ss.ptr2, req.recvBuf)
	case opScatter:
		ss.queueXfer(ss.ptr, req.recvBuf)
	case opAlltoall:
		ss.queueXfer(ss.ptr2, req.recvBuf)
	default:
		return false
	}
	return true
}
