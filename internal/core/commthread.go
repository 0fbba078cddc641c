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
// The communication thread (runCommThread) is the only goroutine that
// touches index, coll and tr — the paper's "exactly one communication
// thread per node owns the underlying MPI library".
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

	// txs and ins are the host node's lists of spare dcgn-tx helpers and
	// inbound messages: taken by the comm thread and the lane receiver,
	// given back by the helper as it ends and by the comm thread once an
	// inbound's payload is delivered, all on the node's simulator. Nil on
	// the live backend, where those are goroutines of their own: a nil
	// list recycles nothing.
	txs *sim.FreeList[remoteSend]
	ins *sim.FreeList[inbound]

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
	// transient transport failure (collCall); read atomically by Job.report.
	collRetried int64
	// osPuts / osGets count origin-side one-sided operations, osTriggered
	// NIC-fired device descriptors and osTruncated target-side clipped
	// applies. They live here rather than on osw so that a mid-run metrics
	// snapshot reads them without racing the lane's construction.
	osPuts, osGets, osTriggered, osTruncated atomic.Int64
}

// start spawns the node's communication thread and the two-sided lane's
// stackless receiver daemon; both run for the life of the application.
// (The one-sided lane's receiver comes up with the lane, in osRequire.)
func (ns *nodeState) start() {
	ns.rt.SpawnDaemonID("comm", ns.node, ns.runCommThread)
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

// runCommThread is the progress engine's event loop: it drains the intake
// stream and routes each event to the matching layer (point-to-point),
// the collective accumulator, or the transport (remote relays). All
// engine state is confined to this thread.
func (ns *nodeState) runCommThread(p transport.Proc) {
	for {
		msg, ok := ns.intake.next(p)
		if !ok {
			return // intake shut down (live backend teardown)
		}
		if ns.obsOn {
			if msg.req != nil {
				msg.req.dequeuedAt = p.Now()
			}
			if m := ns.job.metrics; m != nil {
				m.observe(histKey{kind: histIntakeDepth}, int64(ns.intake.depth()))
			}
		}
		ns.charge(p, ns.job.cfg.Params.DispatchCost)
		ns.requestsHandled++
		switch {
		case msg.req != nil:
			ns.handleRequest(p, msg.req)
		case msg.in != nil:
			ns.handleInbound(p, msg.in)
		}
	}
}

// handleRequest routes one local request.
func (ns *nodeState) handleRequest(p transport.Proc, req *request) {
	switch req.op {
	case opSend:
		ns.handleSend(p, req)
	case opRecv:
		ns.handleRecv(p, req)
	case opSendrecv:
		ns.handleSendrecv(p, req)
	case opBarrier, opBcast, opGather, opScatter, opAlltoall:
		ns.coll.add(p, req)
	default:
		panic(fmt.Sprintf("dcgn: unknown op %v", req.op))
	}
}

// localRanks returns how many virtual ranks live on this node.
func (ns *nodeState) localRanks() int { return ns.job.rmap.PerNode(ns.node) }
