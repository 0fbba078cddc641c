package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/sim"
)

// GPU-triggered one-sided operations: the device kernel enqueues a put
// descriptor into a device-resident ring and rings a doorbell; a
// per-device NIC daemon fires the put directly onto the transport's
// one-sided lane. Contrast with the classic mailbox path
// (gpu.go), where the same device-sourced message costs a monitor poll
// tick to be DISCOVERED, a comm-thread relay to be SENT, and another poll
// tick to be COMPLETED (paper §5.2's three communications). The triggered
// path touches no monitor and no comm thread: Polls/Hits stay untouched
// by construction, which the zero-poll test pins.
//
// PCIe control-trip budget per device-sourced message:
//
//	classic mailbox   claim(4) + done write-back(20) + every poll's
//	                  mailbox scan — 2 trips plus the polling tax
//	dynamic trigger   descriptor fetch(48) + posted-flag clear(4) — 2
//	                  trips, zero polling
//	persistent        doorbell only — 0 trips, 0 polls ("register once,
//	                  fire many times": the NIC already holds the
//	                  descriptor)
//
// Payload staging still rides the payload bus (GPUDirect-aware), exactly
// like the classic path — the win is control-path, which is where §5.1's
// small-message latency went.

// Triggered-descriptor ring layout: trigRingSlots fixed-size records per
// device, resident in device global memory, allocated after the mailboxes.
const (
	trigRingSlots = 8
	trigDescBytes = 48

	tdStatus = 0  // u32: 0 free | 1 posted
	tdSrc    = 4  // i32: source (origin) rank — the put's identity
	tdDst    = 8  // i32: destination rank owning the target window
	tdWin    = 12 // u32: window id
	tdOffset = 16 // u64: byte offset into the target window
	tdPtr    = 24 // u64: device address of the payload
	tdSize   = 32 // u64: payload length (40..47 pad)
)

// trigSlot is the host-side bookkeeping for one triggered-ring entry. One
// outstanding operation per entry, like mailbox slots; busy/done are
// written by the posting kernel block and the NIC daemon, which share the
// node's scheduling domain.
type trigSlot struct {
	idx  int
	mb   device.Ptr
	busy bool
	done completion
}

// osPersist is one registered persistent triggered put: the NIC holds the
// descriptor host-side, so a fire is a bare doorbell — no descriptor
// fetch, no PCIe control trip. Completion is counted, with TriggerDrain
// as the fence; one draining block per descriptor at a time (same
// single-driver convention as mailbox slots).
type osPersist struct {
	srcRank, dstRank, winID, offset int
	ptr                             device.Ptr
	size                            int

	mu        sync.Mutex
	fired     int64
	completed int64
	fence     completion
	fenceAt   int64
}

// completeOne counts one finished fire and releases a drain fence whose
// threshold is reached.
func (pp *osPersist) completeOne() {
	pp.mu.Lock()
	pp.completed++
	var fire completion
	if pp.fence != nil && pp.completed >= pp.fenceAt {
		fire = pp.fence
		pp.fence = nil
	}
	pp.mu.Unlock()
	if fire != nil {
		fire.Fire()
	}
}

// trigToken is one doorbell ring: either a dynamic ring entry (ss) or a
// persistent descriptor (pp). firedAt timestamps the device-side enqueue
// for the enqueue→fire histogram.
type trigToken struct {
	ss      *trigSlot
	pp      *osPersist
	firedAt time.Duration
}

// requireNIC brings the device's triggered-operation machinery up on its
// first use: the descriptor ring in device global memory, the doorbell
// queue, the NIC daemon that drains it — fires are serviced in ring order,
// which keeps one-sided sequence assignment aligned with wire order per
// destination — and the node's one-sided lane, which the daemon posts on
// and whose sink takes its acks. The device model exists only in virtual
// time, where a node's procs run one at a time, so a nil test is the once.
func (gt *gpuThread) requireNIC() {
	if gt.trigQ != nil {
		return
	}
	gt.ns.osRequire()
	for i := 0; i < trigRingSlots; i++ {
		gt.trig = append(gt.trig, &trigSlot{idx: i, mb: gt.dev.Mem().MustAlloc(trigDescBytes)})
	}
	gt.trigQ = sim.NewQueue[*trigToken](gt.ns.sim, fmt.Sprintf("nic-db:%d.%d", gt.ns.node, gt.index))
	gt.ns.sim.SpawnDaemon(fmt.Sprintf("gpu-nic:%d.%d", gt.ns.node, gt.index), func(p *sim.Proc) {
		for {
			tk := gt.trigQ.Get(p)
			gt.fireTriggered(p, tk)
		}
	})
}

// fireTriggered services one doorbell ring end to end: descriptor fetch
// (dynamic only), payload staging off the device, the one-sided put
// itself, and completion signaling back to the kernel.
func (gt *gpuThread) fireTriggered(p *sim.Proc, tk *trigToken) {
	ns := gt.ns
	params := ns.job.cfg.Params
	le := binary.LittleEndian

	var srcRank, dstRank, winID, offset, size int
	var ptr device.Ptr
	if tk.pp != nil {
		pp := tk.pp
		srcRank, dstRank, winID, offset, ptr, size = pp.srcRank, pp.dstRank, pp.winID, pp.offset, pp.ptr, pp.size
	} else {
		ss := tk.ss
		// The NIC fetches the descriptor over PCIe — the dynamic path's
		// first (of two) control trips.
		ns.bus.Ctl(p, trigDescBytes)
		desc := gt.dev.Bytes(ss.mb, trigDescBytes)
		if le.Uint32(desc[tdStatus:]) != 1 {
			panic("dcgn: triggered doorbell rung without posted descriptor")
		}
		srcRank = int(int32(le.Uint32(desc[tdSrc:])))
		dstRank = int(int32(le.Uint32(desc[tdDst:])))
		winID = int(le.Uint32(desc[tdWin:]))
		offset = int(int64(le.Uint64(desc[tdOffset:])))
		ptr = device.Ptr(le.Uint64(desc[tdPtr:]))
		size = int(le.Uint64(desc[tdSize:]))
	}

	ns.charge(p, params.DoorbellCost)
	ns.osTriggered.Add(1)
	if m := ns.job.metrics; m != nil {
		if lat := int64(p.Now() - tk.firedAt); lat >= 0 {
			m.observe(histKey{kind: histTrigFire}, lat)
		}
	}

	payload := ns.job.pool.Get(size)
	gt.dev.CopyOut(p, gt.payloadBus(), ptr, payload)

	f := &frame{kind: kindPut, src: srcRank, dst: dstRank, payload: payload, os: osAddr{win: winID, offset: offset}}
	if _, err := ns.osDeliver(p, f); err != nil {
		panic(fmt.Sprintf("dcgn: triggered put from rank %d to rank %d: %v", srcRank, dstRank, err))
	}
	ns.job.pool.Put(payload)

	if tk.pp != nil {
		tk.pp.completeOne()
		return
	}
	// Dynamic completion: clear the posted flag on the device — the second
	// (and last) control trip — and release a waiting TriggerFence.
	ss := tk.ss
	desc := gt.dev.Bytes(ss.mb, trigDescBytes)
	le.PutUint32(desc[tdStatus:], 0)
	ns.bus.Ctl(p, 4)
	ss.busy = false
	ss.done.Fire()
}

// --- Device-side triggered API ------------------------------------------

// TriggerPut enqueues a one-sided put of n bytes of device memory at ptr
// into window winID of rank dst at offset, on behalf of srcSlot's rank,
// and rings the NIC doorbell. It returns immediately — the device never
// waits for a poll tick or a comm-thread relay; TriggerFence(ring) is the
// completion fence. One outstanding operation per ring entry.
func (g *GPUCtx) TriggerPut(ring, srcSlot, dst, winID, offset int, ptr device.Ptr, n int) {
	gt := g.gt
	gt.requireNIC()
	if ring < 0 || ring >= len(gt.trig) {
		panic(fmt.Sprintf("dcgn: bad trigger ring entry %d (device has %d)", ring, len(gt.trig)))
	}
	ss := gt.trig[ring]
	if ss.busy {
		panic(fmt.Sprintf("dcgn: trigger ring entry %d posted while busy (one outstanding op per entry)", ring))
	}
	srcRank := g.Rank(srcSlot)
	desc := g.b.Device().Bytes(ss.mb, trigDescBytes)
	le := binary.LittleEndian
	le.PutUint32(desc[tdSrc:], uint32(int32(srcRank)))
	le.PutUint32(desc[tdDst:], uint32(int32(dst)))
	le.PutUint32(desc[tdWin:], uint32(winID))
	le.PutUint64(desc[tdOffset:], uint64(int64(offset)))
	le.PutUint64(desc[tdPtr:], uint64(ptr))
	le.PutUint64(desc[tdSize:], uint64(n))
	ss.busy = true
	ss.done = gt.ns.rt.NewEventID("trig-done", srcRank)
	le.PutUint32(desc[tdStatus:], 1)
	gt.trigQ.Put(&trigToken{ss: ss, firedAt: g.b.Proc().Now()})
}

// TriggerFence blocks the calling block until the triggered operation in
// the given ring entry has completed (put on the wire — and acknowledged,
// under Config.Reliability). A free entry returns immediately.
func (g *GPUCtx) TriggerFence(ring int) {
	gt := g.gt
	gt.requireNIC()
	ss := gt.trig[ring]
	if !ss.busy {
		return
	}
	ss.done.Wait(g.b.Proc())
}

// TriggerStart fires persistent descriptor pid (GPUSetup.RegisterTrigger)
// once: a bare doorbell ring, no descriptor transfer at all. Returns
// immediately; TriggerDrain is the fence.
func (g *GPUCtx) TriggerStart(pid int) {
	gt := g.gt // a registered descriptor means RegisterTrigger brought the NIC up
	if pid < 0 || pid >= len(gt.persist) {
		panic(fmt.Sprintf("dcgn: bad persistent trigger id %d (device has %d)", pid, len(gt.persist)))
	}
	pp := gt.persist[pid]
	pp.mu.Lock()
	pp.fired++
	pp.mu.Unlock()
	gt.trigQ.Put(&trigToken{pp: pp, firedAt: g.b.Proc().Now()})
}

// TriggerDrain blocks the calling block until every TriggerStart fire of
// persistent descriptor pid so far has completed.
func (g *GPUCtx) TriggerDrain(pid int) {
	gt := g.gt
	pp := gt.persist[pid]
	pp.mu.Lock()
	if pp.completed >= pp.fired {
		pp.mu.Unlock()
		return
	}
	pp.fence = gt.ns.rt.NewEventID("trig-drain", pp.srcRank)
	pp.fenceAt = pp.fired
	ev := pp.fence
	pp.mu.Unlock()
	ev.Wait(g.b.Proc())
}
