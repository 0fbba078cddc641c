package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
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
	// done is the entry's operation's completion, and tk its doorbell ring:
	// both made again for each.
	done sim.Event
	tk   trigToken
}

// osPersist is one registered persistent triggered put: the NIC holds the
// descriptor host-side, so a fire is a bare doorbell — no descriptor
// fetch, no PCIe control trip. Completion is counted, with TriggerDrain
// as the fence; one draining block per descriptor at a time (same
// single-driver convention as mailbox slots), so the fence lives in fenceEv.
type osPersist struct {
	srcRank, dstRank, winID, offset int
	ptr                             device.Ptr
	size                            int

	mu                        sync.Mutex
	fired, completed, fenceAt int64
	fence                     completion
	fenceEv                   sim.Event
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
// for the enqueue→fire histogram. A ring entry's lives in its trigSlot; a
// persistent fire's is its own, since fires of one descriptor queue up.
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
	gt.ns.rt.SpawnStep(fmt.Sprintf("gpu-nic:%d.%d", gt.ns.node, gt.index), sim.NoID, &gpuNIC{gt: gt}, true, true)
}

// gpuNIC is a device's NIC daemon, a step machine the node's substrate
// hosts (it sends on the transport): it services each doorbell ring end to
// end — descriptor fetch (dynamic only), payload staging off the device,
// the one-sided put itself, and completion signaling back to the kernel.
type gpuNIC struct {
	gt    *gpuThread
	tk    *trigToken
	phase uint8
	// f is the put being fired, of size payload bytes at ptr on the device.
	f    frame
	ptr  device.Ptr
	size int
	// tx is a put to another node on its way, t the target side of one to
	// this node.
	tx txFrame
	t  osTargetOp
}

// The phases of a gpuNIC.
const (
	nicNext     uint8 = iota // take the next doorbell ring
	nicGot                   // a ring is in hand
	nicFetch                 // a dynamic descriptor's fetch has landed
	nicDoorbell              // the doorbell cost is charged
	nicStage                 // the payload is off the device
	nicSend                  // the put is on its way to another node
	nicApply                 // the put is applying on this node
	nicClear                 // the posted flag's clear has landed
)

// step advances the daemon to its next wake; it never ends.
func (n *gpuNIC) step(h transport.Proc) bool {
	p := h.(*sim.Proc)
	gt := n.gt
	ns := gt.ns
	le := binary.LittleEndian
	for {
		switch n.phase {
		case nicNext:
			n.phase = nicGot
			if !gt.trigQ.GetStep(p, &n.tk) {
				return false
			}
			fallthrough
		case nicGot:
			if pp := n.tk.pp; pp != nil {
				n.f = frame{kind: kindPut, src: pp.srcRank, dst: pp.dstRank, os: osAddr{win: pp.winID, offset: pp.offset}}
				n.ptr, n.size = pp.ptr, pp.size
				n.phase = nicDoorbell
				sleepStep(p, ns.jit, ns.job.cfg.Params.DoorbellCost)
				return false
			}
			// The NIC fetches the descriptor over PCIe — the dynamic path's
			// first (of two) control trips.
			n.phase = nicFetch
			ns.bus.CtlStep(p, trigDescBytes)
			return false
		case nicFetch:
			desc := gt.dev.Bytes(n.tk.ss.mb, trigDescBytes)
			if le.Uint32(desc[tdStatus:]) != 1 {
				panic("dcgn: triggered doorbell rung without posted descriptor")
			}
			n.f = frame{
				kind: kindPut, src: int(int32(le.Uint32(desc[tdSrc:]))), dst: int(int32(le.Uint32(desc[tdDst:]))),
				os: osAddr{win: int(le.Uint32(desc[tdWin:])), offset: int(int64(le.Uint64(desc[tdOffset:])))},
			}
			n.ptr, n.size = device.Ptr(le.Uint64(desc[tdPtr:])), int(le.Uint64(desc[tdSize:]))
			n.phase = nicDoorbell
			sleepStep(p, ns.jit, ns.job.cfg.Params.DoorbellCost)
			return false
		case nicDoorbell:
			ns.osTriggered.Add(1)
			if m := ns.job.metrics; m != nil {
				if lat := int64(p.Now() - n.tk.firedAt); lat >= 0 {
					m.observe(histKey{kind: histTrigFire}, lat)
				}
			}
			n.f.payload = ns.job.pool.Get(n.size)
			n.phase = nicStage
			gt.xferStep(p, true, len(n.f.payload))
			return false
		case nicStage:
			gt.dev.Mem().Read(n.ptr, n.f.payload)
			if dstNode := ns.job.rmap.Node(n.f.dst); dstNode != ns.node {
				n.f.os.postedNs = int64(p.Now())
				msg := ns.osPack(dstNode, &n.f)
				ns.osw.lane.startTx(&n.tx, dstNode, n.f.seq, msg, nil)
				n.phase = nicSend
			} else {
				n.t, n.phase = osTargetOp{}, nicApply
			}
		case nicSend:
			if !n.tx.step(p) {
				return false
			}
			if err := n.tx.err; err != nil {
				panic(fmt.Sprintf("dcgn: triggered put from rank %d to rank %d: %v", n.f.src, n.f.dst, err))
			}
			if !n.fired(p) {
				return false
			}
		case nicApply:
			if !ns.osTargetStep(p, &n.t, &n.f) {
				return false
			}
			n.t.w.arrive(n.t.clipped)
			if !n.fired(p) {
				return false
			}
		case nicClear:
			ss := n.tk.ss
			ss.busy = false
			ss.done.Fire()
			n.tk, n.phase = nil, nicNext
		}
	}
}

// fired completes a fire once its put is delivered: a persistent
// descriptor counts it; a dynamic one clears the posted flag on the device
// — the second (and last) control trip, whose wake it registers and
// reports false for — which releases a waiting TriggerFence once it lands.
func (n *gpuNIC) fired(p *sim.Proc) bool {
	ns := n.gt.ns
	ns.job.pool.Put(n.f.payload)
	n.f = frame{}
	if pp := n.tk.pp; pp != nil {
		pp.completeOne()
		n.tk, n.phase = nil, nicNext
		return true
	}
	binary.LittleEndian.PutUint32(n.gt.dev.Bytes(n.tk.ss.mb, trigDescBytes)[tdStatus:], 0)
	n.phase = nicClear
	ns.bus.CtlStep(p, 4)
	return false
}

// Drop ends a put its daemon was killed sending (sim.Dropper).
func (n *gpuNIC) Drop() {
	if n.phase == nicSend {
		n.tx.Drop()
	}
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
	gt.ns.sim.InitEventID(&ss.done, "trig-done", srcRank)
	ss.busy, ss.tk = true, trigToken{ss: ss, firedAt: g.b.Proc().Now()}
	le.PutUint32(desc[tdStatus:], 1)
	gt.trigQ.Put(&ss.tk)
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
	ev := gt.ns.rt.EventIn(&pp.fenceEv, "trig-drain", pp.srcRank)
	pp.fence, pp.fenceAt = ev, pp.fired
	pp.mu.Unlock()
	ev.Wait(g.b.Proc())
}
