package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/pcie"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// ErrTruncate is reported when a received message exceeds the posted
// buffer.
var ErrTruncate = errors.New("dcgn: message truncated (recv buffer too small)")

// nodeState is the per-node DCGN process, structured as the three layers
// of the progress engine:
//
//   - intake (intake.go) normalizes CPU-kernel requests, GPU-monitor
//     requests and inbound wire messages into one request stream;
//   - index + coll (matchindex.go, collectives.go) hold the matching and
//     collective-accumulation state. DCGN has no tags: matching is FIFO
//     per (source, destination) pair with AnySource receives, and
//     collectives accumulate until every resident rank has joined
//     (paper §3.2.3);
//   - tr (internal/transport) carries framed wire messages and node-level
//     collectives to the other nodes.
//
// The communication thread (commThread) is the only thread that touches
// index, coll and tr — the paper's "exactly one communication thread per
// node owns the underlying MPI library".
type nodeState struct {
	job  *Job
	node int
	// rt is this node's execution substrate: a veneer over its simulator
	// (so everything the node spawns stays on its shard), or the live rt.
	rt rt
	// sim is this node's simulator, its shard's, and jit the noise stream of
	// the substrate node it runs on, seeded from the job's JitterFrac and
	// JitterSeed and this node's index; both nil on the live backend.
	sim *sim.Sim
	jit *sim.Jitter
	// tr is the node's transport endpoint as the engine uses it: the raw
	// endpoint under the configured middlewares. faults is the outermost of
	// them when Config.Faults is on (wrapTransport), else nil.
	tr     transport.Transport
	faults *faults.Endpoint
	bus    *pcie.Bus
	devs   []*device.Device
	gpus   []*gpuThread

	intake *intake
	index  *matchIndex
	coll   *collAccum
	comm   commThread

	// txs, ins and joins are the host node's lists of spare dcgn-tx
	// helpers, inbound messages and sendrecv joins: taken by the comm thread
	// and the lane receiver, given back by a helper as it ends and by the
	// comm thread once an inbound's payload is delivered, all on the node's
	// simulator. Nil on the live backend, where those are goroutines of
	// their own: a nil list recycles nothing.
	txs   *sim.FreeList[remoteSend]
	ins   *sim.FreeList[inbound]
	joins *sim.FreeList[sendrecvJoin]

	// wire is the two-sided frame lane (reliable.go): handleSend transmits
	// on it and its receiver daemon feeds the intake. rel counts the
	// reliability traffic of this lane and the one-sided one.
	wire relLane
	rel  relStats

	// osw holds the one-sided engine (onesided.go) and its lane, built by
	// the node's first one-sided call under osOnce (osRequire); nil means
	// neither exists, nor the sink daemon.
	osOnce sync.Once
	osw    *osState

	// obsOn is true when either tracing or metrics are enabled — the
	// single branch the hot paths take before any observability stamp.
	obsOn bool
	// flowsOn is true when Config.Flows is set: requests carry flow
	// context, wire frames are flowExtLen longer, and match points stitch
	// receives onto their sender's trace.
	flowsOn bool

	// Stats.
	requestsHandled int
	// collRetried counts node-level collective calls re-executed after a
	// transient transport failure (collAccum.call); read atomically by
	// Job.report.
	collRetried int64
	// osPuts / osGets count origin-side one-sided operations, osTriggered
	// NIC-fired device descriptors and osTruncated target-side clipped
	// applies. They live here rather than on osw so that a mid-run metrics
	// snapshot reads them without racing the lane's construction.
	osPuts, osGets, osTriggered, osTruncated atomic.Int64
}

// start spawns the node's communication thread and the two-sided lane's
// receiver daemon, stackless procs both, which run for the life of the
// application. (The one-sided lane's receiver comes up with the lane, in
// osRequire.)
func (ns *nodeState) start() {
	ns.comm.ns = ns
	ns.rt.SpawnStep("comm", ns.node, &ns.comm, true, true)
	ns.rt.SpawnStep("mpi-recv", ns.node, &ns.wire, true, true)
}

// dataHdr is the header length of a two-sided data frame: where its
// payload starts.
func (ns *nodeState) dataHdr() int { return ns.wire.layout.hdrLen(kindData) }

// charge bills d of modeled time to p on this node's behalf, scaled by the
// node's noise. Every cost the engine models goes through here or through
// its step form, sleepStep; on the live backend, where costs are real, it
// charges nothing.
func (ns *nodeState) charge(p transport.Proc, d time.Duration) {
	if !sleepStep(p, ns.jit, d) {
		await(p)
	}
}

// commThread is the progress engine's event loop, a step machine
// (rt.SpawnStep): it takes each event off the intake stream, charges its
// dispatch and routes it to the matching layer (point-to-point), the
// collective accumulator, or the transport (remote relays). A handler that
// charges modeled time is a step form too, resumed where its cursor stands
// — a delivery's (dl), a combined exchange's halves (at, join), a
// collective's (coll's exec) — so the thread owns no stack. All engine
// state is confined to this thread.
type commThread struct {
	ns    *nodeState
	msg   commMsg
	phase uint8
	// op is the kind of the request being handled, zero for an inbound
	// message: handle reads it here, because the request itself may have
	// completed, and been made again by its issuer, before its handling is.
	op   opKind
	dl   delivery
	at   uint8
	join *sendrecvJoin
}

// The phases of a commThread.
const (
	ctNext     uint8 = iota // take the next event
	ctGot                   // an event has arrived, its dispatch to charge
	ctDispatch              // its dispatch is charged
	ctHandle                // its handler is under way
)

func (ct *commThread) step(h transport.Proc) bool {
	ns := ct.ns
	for {
		switch ct.phase {
		case ctNext:
			got, ok := ns.intake.q.GetStep(h, &ct.msg)
			if !ok {
				return true // intake shut down (live backend teardown)
			}
			ct.phase = ctGot
			if !got {
				return false
			}
			fallthrough
		case ctGot:
			ns.intake.took()
			if ns.obsOn {
				if ct.msg.req != nil {
					ct.msg.req.dequeuedAt = h.Now()
				}
				if m := ns.job.metrics; m != nil {
					m.observe(histKey{kind: histIntakeDepth}, int64(ns.intake.depth()))
				}
			}
			ct.phase = ctDispatch
			if !sleepStep(h, ns.jit, ns.job.cfg.Params.DispatchCost) {
				return false
			}
			fallthrough
		case ctDispatch:
			ns.requestsHandled++
			ct.phase = ctHandle
			ct.route(h)
			fallthrough
		case ctHandle:
			if !ct.handle(h) {
				return false
			}
			ct.phase, ct.msg, ct.op = ctNext, commMsg{}, 0
		}
	}
}

// route makes the synchronous part of the event's handling — matching,
// accumulating, relaying — and readies the cursor of the part that charges
// time, which handle steps.
func (ct *commThread) route(h transport.Proc) {
	ns := ct.ns
	if in := ct.msg.in; in != nil {
		ns.handleInbound(h, &ct.dl, in)
		return
	}
	req := ct.msg.req
	ct.op = req.op
	switch req.op {
	case opSend:
		ns.handleSend(h, &ct.dl, req)
	case opRecv:
		ns.handleRecv(h, &ct.dl, req)
	case opSendrecv:
		// handle starts the exchange: both halves are its own.
	case opBarrier, opBcast, opGather, opScatter, opAlltoall:
		ns.coll.add(h, req)
	default:
		panic(fmt.Sprintf("dcgn: unknown op %v", req.op))
	}
}

// handle steps what route readied and reports whether the event is done.
func (ct *commThread) handle(h transport.Proc) bool {
	switch ct.op {
	case opSendrecv:
		return ct.ns.handleSendrecv(h, ct, ct.msg.req)
	case opBarrier, opBcast, opGather, opScatter, opAlltoall:
		return ct.ns.coll.step(h)
	}
	return ct.dl.step(h)
}

// Drop gives back what a killed comm thread holds (sim.Dropper): the
// receives its collective has posted and the pool buffers it has staged.
func (ct *commThread) Drop() {
	if ex := ct.ns.coll.ex; ex != nil {
		ex.drop()
	}
}

// localRanks returns how many virtual ranks live on this node.
func (ns *nodeState) localRanks() int { return ns.job.rmap.PerNode(ns.node) }
