// Package mpi is a message-passing library in the style of MPI-1, built on
// the simulated cluster fabric. It plays the role MVAPICH2 plays in the
// paper: it is both the baseline every experiment compares against and the
// underlying communication library DCGN layers on top of (paper §3.2.2:
// "DCGN uses MPI as its underlying communication library"). It holds the
// calls those two roles make and no more of the standard than that:
//
//   - point-to-point with (source, tag) matching including wildcards and an
//     eager/rendezvous protocol split: Send, SendMsg and RecvMsg
//     (take-ownership) and their step forms SendMsgStep and RecvMsgOp,
//     Recv, Isend, Request.Wait, WaitAll, Sendrecv, SendrecvReplace;
//   - collectives on a communicator (Comm): Barrier (dissemination), Bcast
//     (binomial tree; scatter + ring allgather for large payloads), Gather
//     and Gatherv (flat or binomial tree), with Rank.Barrier/Bcast/Gather
//     as the world-communicator shorthands the baselines call, and Coll,
//     the one collective step machine they drive, which a transport steps
//     for those and for Scatterv (flat or binomial tree) and Alltoallv
//     (pairwise exchange);
//   - communicators: the world's (World.Comm) and one per explicit member
//     set (World.NewGroupComm, renewed for a later job by Comm.Renew), each
//     a collective tag context of its own, retired with its job's tags
//     (Comm.Retire) — World.LiveKeys counts what a world keeps of those not
//     retired.
//
// No communicator is derived by a collective exchange, nothing is reduced
// and payloads are bytes: nothing above asks for more.
//
// Every rank is driven by exactly one simulated proc; per-node progress
// engines (stackless daemon procs) perform matching and the rendezvous
// handshake, and stackless helpers inject eager sends and rendezvous data.
// A send and a receive are step machines (SendOp, RecvOp): the blocking
// calls drive one with Proc.Await, and a stackless proc steps one itself.
//
// NewWorld is the only constructor. A world runs on whatever fabric it is
// given, plain or sharded: each rank's procs, events and progress engine
// live on the simulator that owns its fabric node (fabric.Node.Sim).
package mpi

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/fabric"
	"dcgn/internal/sim"
)

// Wildcards for Recv matching.
const (
	// AnySource matches messages from every rank.
	AnySource = -1
	// AnyTag matches every tag.
	AnyTag = -1
)

// headerBytes is the wire overhead added to every message (envelope,
// matching info).
const headerBytes = 64

// ErrTruncate is reported when a message is longer than the posted receive
// buffer.
var ErrTruncate = errors.New("mpi: message truncated (recv buffer too small)")

// Config tunes the library.
type Config struct {
	// EagerLimit is the largest payload sent eagerly (copied and fired off
	// immediately); larger messages use the rendezvous (RTS/CTS) protocol.
	EagerLimit int
	// CallOverhead is the CPU cost charged for every library call,
	// modeling the software stack.
	CallOverhead time.Duration
	// CollHopOverhead is charged per data-bearing hop inside collective
	// algorithms (buffer management, segmentation) — 2008-era collective
	// stacks paid tens of microseconds per level for kB-sized payloads.
	// Hops whose payload is below collHopMinSize (barrier tokens) are
	// exempt.
	CollHopOverhead time.Duration
	// Pool recycles payload staging buffers (eager copies, rendezvous
	// snapshots). nil means the world creates a private pool; DCGN passes
	// its job-wide pool so acquire/release accounting spans both layers.
	Pool *bufpool.Pool
	// TreeCollectives switches Gatherv/Scatterv (and the fixed-size
	// Gather built on Gatherv) from the flat fan-in/fan-out — the
	// root posting n-1 receives or sends — to binomial trees, bounding
	// the root's incast to log2(n) messages at scale. It also switches
	// Bcast payloads larger than bcastLargeMin to binomial scatter + ring
	// allgather (see largeBcast), which spares the root from injecting
	// log2(n) full payload copies.
	TreeCollectives bool
}

// collHopMinSize is the smallest payload that pays CollHopOverhead.
const collHopMinSize = 256

// DefaultConfig matches an optimized 2008-era MPI (MVAPICH2-1.0-like).
func DefaultConfig() Config {
	return Config{
		EagerLimit:      8 << 10,
		CallOverhead:    600 * time.Nanosecond,
		CollHopOverhead: 45 * time.Microsecond,
	}
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int // bytes received
}

// World is a set of ranks mapped onto fabric nodes (MPI_COMM_WORLD).
type World struct {
	net    *fabric.Network
	cfg    Config
	ranks  []*Rank
	nodeOf []int

	// Communicator bookkeeping (see comm.go): the world communicator, built
	// by NewWorld and read-only after, and the last context id handed out.
	// commMu guards the counter and the live keys below: NewGroupComm is
	// a host-side call that a Runtime makes from whichever goroutine admits
	// a tenant.
	commMu     sync.Mutex
	world      *Comm
	nextCommID int

	// live holds the traffic keys of the group communicators not yet
	// retired: each one's context (as -1-id) and its point-to-point tags.
	// Every other context up to nextCommID, and every other tag in [tagLo,
	// tagHi], the span of the tags group communicators have had, is retired
	// (Comm.Retire, World.retired). So what a long-lived world keeps is
	// bounded by the communicators running, not the ones that ran. Written
	// under commMu and read, as late is, between events; dropped counts the
	// messages of retired traffic dropped once Retire has installed late
	// (lateOn).
	live         map[int]struct{}
	tagLo, tagHi int
	lateOn       bool
	dropped      interface{ Add(int64) }
}

// NewWorld creates a world with len(nodeOf) ranks; rank i runs on fabric
// node nodeOf[i]. A progress-engine daemon is started per node. Every
// rank's procs, events and progress engine live on the simulator that owns
// its fabric node (fabric.Node.Sim) — the one shared simulator of a plain
// network, the node's shard's in a sharded one, where all cross-node
// traffic flows through the fabric's deterministic arrival order and
// rank-level behavior is identical for every shard count. The simulator
// argument is therefore redundant and ignored (pass nil over a sharded
// fabric); it stays because callers outside this module pass it.
func NewWorld(_ *sim.Sim, net *fabric.Network, nodeOf []int, cfg Config) *World {
	if len(nodeOf) == 0 {
		panic("mpi: empty world")
	}
	if cfg.Pool == nil {
		cfg.Pool = bufpool.New()
	}
	w := &World{net: net, cfg: cfg, nodeOf: append([]int(nil), nodeOf...)}
	for id, node := range nodeOf {
		if node < 0 || node >= net.Size() {
			panic(fmt.Sprintf("mpi: rank %d mapped to bad node %d", id, node))
		}
		w.ranks = append(w.ranks, &Rank{
			w:            w,
			id:           id,
			node:         node,
			sim:          net.Node(node).Sim(),
			jit:          net.Node(node).Jitter(),
			bound:        make(map[uint64]*recvReq),
			pendingSends: make(map[uint64]*sendReq),
			sendPrefix:   "isend:" + strconv.Itoa(id),
			recvPrefix:   "irecv:" + strconv.Itoa(id),
		})
		w.ranks[id].envs.Init(w.ranks[id].sim, "envelope", spareEnvelopes)
		w.ranks[id].sends.Init(w.ranks[id].sim, "send-req", spareSendReqs)
	}
	members := make([]int, len(w.ranks))
	for i := range members {
		members[i] = i
	}
	w.world = w.newComm(0, members)
	nodes := map[int]bool{}
	for _, n := range nodeOf {
		if !nodes[n] {
			nodes[n] = true
			w.startEngine(n)
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Pool returns the world's staging-buffer pool (for take-ownership
// receivers that must release payloads obtained from RecvMsg).
func (w *World) Pool() *bufpool.Pool { return w.cfg.Pool }

// Rank returns the handle for rank id. Exactly one proc must drive each
// rank's operations.
func (w *World) Rank(id int) *Rank { return w.ranks[id] }

// SetRankPool points rank id's staging acquires at pool (nil restores the
// world pool). A multi-tenant runtime calls this at job admission so every
// buffer a tenant's traffic stages is acquired from — and released to —
// that tenant's own pool. Callers must only retarget a quiesced rank (no
// operation of the previous owner still in flight), which the runtime's
// completion tracking guarantees.
func (w *World) SetRankPool(id int, pool *bufpool.Pool) { w.ranks[id].pool = pool }

// Rank is one communication endpoint (MPI process).
type Rank struct {
	w    *World
	id   int
	node int
	sim  *sim.Sim    // the simulator owning this rank's fabric node
	jit  *sim.Jitter // that node's noise stream: library-call overheads scale through it

	// pool, when non-nil, overrides the world pool for this rank's staging
	// acquires (eager copies, rendezvous snapshots, scratch). A multi-tenant
	// runtime points every rank a job occupies at that job's pool, so pool
	// accounting stays per-tenant even though the world is shared; see
	// SetRankPool. nil (the default) keeps the world pool — the single-job
	// behavior the golden suite pins.
	pool *bufpool.Pool

	posted     []*recvReq
	unexpected []*envelope
	// bound maps a rendezvous seq to the receive matched at RTS time.
	bound map[uint64]*recvReq
	// pendingSends maps a rendezvous seq to the send awaiting CTS.
	pendingSends map[uint64]*sendReq
	nextSeq      uint64

	// sendPrefix/recvPrefix are precomputed lazy-event-name prefixes so
	// per-message sends and receives format nothing.
	sendPrefix string
	recvPrefix string

	// envs holds spare envelopes. A rank takes the envelopes it sends from
	// its own list, and the rank an envelope is addressed to gives it back
	// to its list once the envelope is handled: an envelope ends its life
	// on the receiving rank's node, under that node's simulator's baton.
	envs sim.FreeList[envelope]
	// sends holds spare rendezvous sends. A rank takes its sends from its
	// own list and gives each back once its waiter has seen it complete
	// (sendDone); a send an Isend caller keeps is never given back.
	sends sim.FreeList[sendReq]
}

// spareEnvelopes and spareSendReqs cap a rank's lists of spare envelopes
// and rendezvous sends.
const (
	spareEnvelopes = 128
	spareSendReqs  = 16
)

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// World returns the world this rank belongs to.
func (r *Rank) World() *World { return r.w }

// Posted returns how many receives wait on the rank's posted list — what
// every inbound message is matched against, oldest first.
func (r *Rank) Posted() int { return len(r.posted) }

// Unexpected returns how many arrived messages wait on the rank's
// unexpected queue for a receive to match them.
func (r *Rank) Unexpected() int { return len(r.unexpected) }

// stagingPool returns the pool this rank's staging buffers come from: the
// per-rank override when set (multi-tenant worlds), else the world pool.
// Traffic never crosses tenants, so a buffer acquired here is always
// released by a rank with the same stagingPool.
func (r *Rank) stagingPool() *bufpool.Pool {
	if r.pool != nil {
		return r.pool
	}
	return r.w.cfg.Pool
}

type msgKind int

const (
	kindEager msgKind = iota
	kindRTS
	kindCTS
	kindData
)

// envelope is the payload of every fabric packet the library sends.
type envelope struct {
	kind msgKind
	src  int
	dst  int
	tag  int
	seq  uint64
	size int    // full payload size (RTS announces it without data)
	data []byte // eager or rendezvous-data payload
}

// recvReq is a posted receive. done lives in it: a receive is completed
// once.
type recvReq struct {
	buf  []byte
	src  int
	tag  int
	done sim.Event
	stat Status
	err  error
	// take marks a take-ownership receive (RecvMsg): instead of copying
	// into buf, deliver hands the matched payload slice over as buf and
	// the caller assumes responsibility for releasing it to the pool.
	take bool
}

// sendReq is a rendezvous send awaiting its CTS, from rank from; data is
// what goes on the wire. pkt is the packet being sent for it while its
// outbound cost is paid — its RTS by the sender, then its data by the
// mpi-rndv-data helper — and nil once the packet is on its way, which the
// receiving node recycles. done lives in it, as it completes the send once.
// It comes from its rank's list (Rank.sends).
type sendReq struct {
	from *Rank
	data []byte
	dst  int
	tag  int
	seq  uint64
	done sim.Event
	pkt  *fabric.Packet
}

// Request is a handle to a nonblocking send (Isend): its completion event,
// nil for an eager send (complete once its payload is buffered). A send
// reports no status and no error.
type Request struct {
	done *sim.Event
}

// Wait blocks p until the send completes.
func (req *Request) Wait(p *sim.Proc) {
	if req.done != nil {
		req.done.Wait(p)
	}
}

// matches reports whether a posted receive accepts an envelope.
func (rr *recvReq) matches(env *envelope) bool {
	return (rr.src == AnySource || rr.src == env.src) &&
		(rr.tag == AnyTag || rr.tag == env.tag)
}

// takePosted removes and returns the first posted receive matching env.
func (r *Rank) takePosted(env *envelope) *recvReq {
	for i, rr := range r.posted {
		if rr.matches(env) {
			// Shift down and nil the vacated tail slot so the retained
			// backing array doesn't pin the matched request.
			copy(r.posted[i:], r.posted[i+1:])
			r.posted[len(r.posted)-1] = nil
			r.posted = r.posted[:len(r.posted)-1]
			return rr
		}
	}
	return nil
}

// takeUnexpected removes and returns the first queued envelope matching a
// newly posted receive.
func (r *Rank) takeUnexpected(rr *recvReq) *envelope {
	for i, env := range r.unexpected {
		if rr.matches(env) {
			// Shift down and nil the vacated tail slot so the retained
			// backing array doesn't pin the envelope and its payload.
			copy(r.unexpected[i:], r.unexpected[i+1:])
			r.unexpected[len(r.unexpected)-1] = nil
			r.unexpected = r.unexpected[:len(r.unexpected)-1]
			return env
		}
	}
	return nil
}

// deliver completes a matched receive from an eager or data envelope on
// the receiving rank, and gives the envelope back. Copy path: the payload
// is copied into the posted buffer and the staging slice goes back to the
// receiver's staging pool (the acquiring sender's pool too — traffic never
// crosses tenants). Take path (RecvMsg): ownership of the staging slice
// transfers to the receiver — the zero-copy wire relay.
func (r *Rank) deliver(rr *recvReq, env *envelope) {
	if rr.take {
		rr.buf = env.data
		rr.stat = Status{Source: env.src, Tag: env.tag, Count: len(env.data)}
		r.envs.Put(env)
		rr.done.Fire()
		return
	}
	n := len(env.data)
	if n > len(rr.buf) {
		n = len(rr.buf)
		rr.err = ErrTruncate
	}
	copy(rr.buf[:n], env.data[:n])
	r.stagingPool().Put(env.data)
	rr.stat = Status{Source: env.src, Tag: env.tag, Count: n}
	r.envs.Put(env)
	rr.done.Fire()
}

// engine is a node's progress daemon, a stackless proc: it drains the
// node's fabric inbox, performs matching, runs the rendezvous handshake and
// completes requests. in is where a Put hands the engine the packet it
// waits for, and cts the clear-to-send it is injecting, nil between them.
type engine struct {
	w   *World
	nd  *fabric.Node
	in  *fabric.Packet
	cts *fabric.Packet
}

// startEngine spawns the progress engine of a node.
func (w *World) startEngine(node int) {
	e := &engine{w: w, nd: w.net.Node(node)}
	e.nd.Sim().SpawnStepDaemon("mpi-engine", node, e.step, nil)
}

// step handles inbound envelopes until the inbox is empty or a matched RTS
// has the engine send a CTS, which it puts on its way in the next step.
func (e *engine) step(p *sim.Proc) {
	if e.cts != nil {
		e.nd.Sent(p, e.cts)
		e.cts = nil
	}
	for e.in != nil || e.nd.Inbox.GetStep(p, &e.in) {
		env, ok := e.in.Payload.(*envelope)
		if !ok {
			panic("mpi: foreign packet in inbox")
		}
		e.nd.Release(e.in)
		e.in = nil
		if e.cts = e.handle(p, env); e.cts != nil {
			return
		}
	}
}

// handle processes one inbound envelope and returns the CTS it starts
// sending, if any.
func (e *engine) handle(p *sim.Proc, env *envelope) *fabric.Packet {
	w := e.w
	r := w.ranks[env.dst]
	switch env.kind {
	case kindEager:
		if rr := r.takePosted(env); rr != nil {
			r.deliver(rr, env)
		} else {
			r.unexpected = append(r.unexpected, env)
		}
	case kindRTS:
		if rr := r.takePosted(env); rr != nil {
			r.bound[env.seq] = rr
			c := r.cts(env)
			return e.nd.SendStep(p, w.nodeOf[c.dst], headerBytes, c)
		}
		r.unexpected = append(r.unexpected, env)
	case kindCTS:
		sr, ok := r.pendingSends[env.seq]
		if !ok {
			panic(fmt.Sprintf("mpi: CTS for unknown send seq %d at rank %d", env.seq, r.id))
		}
		delete(r.pendingSends, env.seq)
		r.envs.Put(env)
		// Transmit the bulk data on a helper so the engine keeps making
		// progress for other ranks on this node.
		e.nd.Sim().SpawnStep("mpi-rndv-data", r.id, sendRndvData, sr)
	case kindData:
		rr, ok := r.bound[env.seq]
		if !ok {
			panic(fmt.Sprintf("mpi: data for unbound recv seq %d at rank %d", env.seq, r.id))
		}
		delete(r.bound, env.seq)
		r.deliver(rr, env)
	}
	return nil
}

// sendRndvData is the step of an mpi-rndv-data helper: it injects the
// payload of the rendezvous send it carries (Proc.Arg) and, once that is on
// its way, completes the send.
func sendRndvData(h *sim.Proc) {
	sr := h.Arg().(*sendReq)
	r := sr.from
	nd := r.w.net.Node(r.node)
	if h.Woken() {
		nd.Sent(h, sr.pkt)
		sr.pkt = nil
		sr.done.Fire()
		return
	}
	data := r.envs.Get()
	*data = envelope{kind: kindData, src: r.id, dst: sr.dst, tag: sr.tag, seq: sr.seq, size: len(sr.data), data: sr.data}
	sr.pkt = nd.SendStep(h, r.w.nodeOf[sr.dst], headerBytes+len(sr.data), data)
}

// cts returns the clear-to-send answering a matched rendezvous's RTS, and
// gives the RTS back: r is the rank it was addressed to.
func (r *Rank) cts(rts *envelope) *envelope {
	c := r.envs.Get()
	*c = envelope{kind: kindCTS, src: rts.dst, dst: rts.src, tag: rts.tag, seq: rts.seq}
	r.envs.Put(rts)
	return c
}
