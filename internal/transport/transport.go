// Package transport defines the wire seam of the DCGN progress engine:
// the interface between a node's engine (internal/core) and whatever
// substrate actually moves bytes between nodes.
//
// The paper's design (§3.2.2) has the communication thread own "the
// underlying communication library" — MPI in the original. Everything the
// engine needs from that library is node-level, and it is one interface,
// Transport: one send, one receive, one collective. The send and the
// receive serve two lanes:
//
//   - the two-sided lane and the node-level collective serve the comm
//     thread: send one framed wire message to a peer node, wait for the
//     next inbound one, run a collective (a CollOp: barrier, broadcast,
//     vector gather, scatter or all-to-all) once every resident rank has
//     joined;
//   - the one-sided lane models an RDMA-capable NIC: frames posted here
//     never enter the comm thread's intake→matcher path at either end — the
//     origin posts from the producing thread (a CPU kernel or a
//     GPU-triggered NIC daemon) and the target's sink daemon applies them
//     straight into registered windows. Every transport carries it; an
//     engine that never registers a window never uses it.
//
// The send and the receive have one form each, a step form (SendStep,
// RecvStep over a SendOp or RecvOp naming the lane): on the simulator a
// step that is not done has registered the calling proc's next wake, so a
// sender or receiver can be a stackless proc; on the live backend every
// step blocks in place and reports itself done. The collective has the
// same one form, CollectiveStep over a CollOp, and one argument check
// (CollOp.Check) that every backend runs before it moves a byte; Collective
// drives it to its end for a caller that may block.
//
// The matching/ordering semantics live once in internal/core and backends
// are interchangeable:
//
//   - simmpi: the default deterministic backend, adapting internal/mpi
//     over the simulated cluster fabric (the configuration every golden
//     determinism test pins); the lanes are two tags of one rank.
//   - live: real goroutines and channels on the wall clock, with no
//     dependency on internal/sim — proof that the engine/transport seam is
//     real, and a harness for running DCGN semantics under the race
//     detector; the lanes are two channels per endpoint.
//   - faults: a middleware over either, perturbing both lanes with the same
//     drop/dup/reorder/delay machinery.
package transport

import (
	"errors"
	"fmt"
	"time"
)

// Backend names accepted by Config.Backend.
const (
	// BackendSim is the deterministic simulated-MPI backend (the default).
	BackendSim = "sim"
	// BackendLive is the goroutine/channel wall-clock backend.
	BackendLive = "live"
)

// ErrClosed is returned by Transport operations after Close: blocked
// receivers and collective participants unwind with it instead of hanging.
var ErrClosed = errors.New("transport: closed")

// ErrTransient marks an injected, retryable failure: a fault-injection
// middleware (internal/transport/faults) wraps the errors it fabricates in
// this sentinel so the progress engine can distinguish "the wire hiccuped,
// try again" from a real backend error. Engines retry bounded times on
// errors.Is(err, ErrTransient) and surface everything else.
var ErrTransient = errors.New("transport: transient injected fault")

// Config selects the progress-engine substrate for a job.
type Config struct {
	// Backend names the transport backend: BackendSim (default when
	// empty) or BackendLive.
	Backend string
}

// Name returns the configured backend name with the default applied.
func (c Config) Name() string {
	if c.Backend == "" {
		return BackendSim
	}
	return c.Backend
}

// Proc is the thread of control a Transport call runs under. On the
// simulated backend it is the calling *sim.Proc (which satisfies this
// interface directly, and which the backend type-asserts back to schedule
// on the simulator); on the live backend it is a WallProc, whose Sleep
// is a no-op because modeled costs are replaced by real execution time.
type Proc interface {
	// Now returns the current time on the backend's clock (virtual or
	// wall) since the start of the run.
	Now() time.Duration
	// Sleep charges d of execution time to the calling thread.
	Sleep(d time.Duration)
}

// Transport is a node-level communication endpoint: the pluggable layer 3
// of the progress engine. One Transport instance serves one node; its
// methods are called by that node's communication thread and helpers.
//
// SendStep and RecvStep carry opaque framed wire messages (internal/core's
// header + payload) on either lane, and both take ownership. A frame comes
// from the job's buffer pool and belongs to the transport from the send's
// first step: it is the buffer the receiving endpoint's RecvStep hands
// over, and on every path exactly one party releases it to the pool — the
// receiver once it has delivered it, or the transport when it drops the
// frame, is closed or fails the send. Each lane has one receiver per
// endpoint, and its frames never mix with the other lane's.
//
// Collective is node-level (one call per node, every node participating),
// mirroring the paper's "one MPI collective per node once all resident
// ranks have joined" pattern (§3.2.3). So a transport is one send, one
// receive, one collective and Close, each of the three a step form.
type Transport interface {
	// SendStep advances op, a send of one or more frames, on p and reports
	// whether it is done; if it is not, it has registered p's next wake,
	// after which the caller calls it again with the same op. A send that
	// fails is done, with the error; every frame it had not put on the wire
	// has gone back to the pool.
	SendStep(p Proc, op *SendOp) (done bool, err error)
	// RecvStep advances op, a receive of the next frame on its lane, as
	// SendStep advances a send. Once it is done without error, op.Take
	// hands over the frame. After Close it is done with ErrClosed (live
	// backend; see Close).
	RecvStep(p Proc, op *RecvOp) (done bool, err error)
	// CollectiveStep advances op, this node's part in a node-level
	// collective that every node of the group joins with an op of the same
	// kind and root, as SendStep advances a send: once it is done, with the
	// collective's error, the op may be reused for the next one. An op that
	// fails op.Check(nodes, node) is done at once with the error and moves
	// no bytes; on the simulator its node does not join, so the others may
	// wait for it, and on the live backend the whole round fails with it.
	CollectiveStep(p Proc, op *CollOp) (done bool, err error)
	// Close shuts the endpoint down; it is idempotent. On the live backend
	// it wakes blocked receivers and collective participants with
	// ErrClosed, which is how a run is torn down. A simulated endpoint's
	// Close is a no-op and no receiver ever sees ErrClosed there: procs
	// blocked in it are killed by the simulator, with their tenant's proc
	// group or at the end of the run.
	Close() error
}

// SendOp is one send (SendStep) in progress: a frame (Msg, whose buffer
// the transport owns from the op's first step) to its job-local node, on
// the two-sided lane or the one-sided one, then whatever a middleware
// queued behind it (Then), each put on the wire once the one before it is.
// Dst and Msg are the frame being sent: the op's own, until a queued one's
// turn (Next).
type SendOp struct {
	Dst      int
	Msg      []byte
	OneSided bool
	// Mid is a middleware's own progress through the op; a backend never
	// reads it.
	Mid uint8
	// Wire is the backend's own progress through the frame being sent,
	// which the caller never reads: it rides in the op so that a send
	// allocates nothing of its own.
	Wire WireState
	then *SendOp
}

// WireState is a backend's progress through one frame: a phase and, once
// the frame needs one, the backend's request for it. simmpi's is
// internal/mpi's send step machine, which has this layout.
type WireState struct {
	Phase uint8
	Req   any
}

// Then queues a send of msg to dstNode, on the op's lane, behind the op's
// own frame and whatever was queued before it. Call it before the op's
// first step reaches the backend.
func (op *SendOp) Then(dstNode int, msg []byte) {
	for ; op.then != nil; op = op.then {
	}
	op.then = &SendOp{Dst: dstNode, Msg: msg}
}

// Next moves op on to the frame queued behind the one it has just sent,
// reporting false when there is none: what a backend calls once a frame is
// on the wire.
func (op *SendOp) Next() bool {
	next := op.then
	if next == nil {
		return false
	}
	op.Dst, op.Msg, op.Wire, op.then = next.Dst, next.Msg, WireState{}, next.then
	return true
}

// RecvOp is one receive (RecvStep) of the next frame on a lane, reused
// from one frame to the next (Take).
type RecvOp struct {
	OneSided bool
	// Mid is a middleware's own progress through the op; a backend never
	// reads it.
	Mid uint8
	// Msg is the frame a done receive was handed, until Take.
	Msg []byte
	// Posted is the backend's receive in flight, which Drop takes back;
	// nil before the op's first step and on a backend whose steps block.
	Posted interface{ Drop() }
}

// Take returns the frame a done op received, whose buffer now belongs to
// the caller, and readies the op for the next receive.
func (op *RecvOp) Take() []byte {
	msg := op.Msg
	op.Msg, op.Mid, op.Posted = nil, 0, nil
	return msg
}

// Drop takes the op's receive back from the backend unless it is done:
// what a proc that ends with the op unfinished must do.
func (op *RecvOp) Drop() {
	if op.Posted != nil {
		op.Posted.Drop()
	}
}

// CollKind names a node-level collective.
type CollKind uint8

// The node-level collectives, the kinds of a CollOp.
const (
	// Barrier returns once every node has entered it.
	Barrier CollKind = iota
	// Bcast copies the root's Send into every other node's Send, of equal
	// length.
	Bcast
	// Gatherv concatenates each node's Send (Counts[node] bytes) into the
	// root's Recv in node order.
	Gatherv
	// Scatterv splits the root's Send by Counts and delivers chunk
	// Counts[node] into each node's Recv.
	Scatterv
	// Alltoallv exchanges variable-size segments: node i's Send segment j
	// (Counts[j] bytes) lands in node j's Recv segment i (RecvCounts[i]
	// bytes), with segments packed in node order.
	Alltoallv
)

var collNames = [...]string{"barrier", "bcast", "gatherv", "scatterv", "alltoallv"}

// String returns the kind's name.
func (k CollKind) String() string {
	if int(k) < len(collNames) {
		return collNames[k]
	}
	return fmt.Sprintf("CollKind(%d)", k)
}

// CollOp is one node's part in a node-level collective (Collective): its
// kind, the root node (0 for Barrier and Alltoallv) and the buffers and
// per-node byte counts the kind reads. A buffer the kind does not read at
// this node may be nil: Recv away from a Gatherv's root, Send away from a
// Scatterv's.
type CollOp struct {
	Kind       CollKind
	Root       int
	Send       []byte
	Recv       []byte
	Counts     []int
	RecvCounts []int
	// Mid is a middleware's own progress through the op; a backend never
	// reads it.
	Mid uint8
	// Wire is the backend's own progress through the op, which the caller
	// never reads: nil before its first step and on a backend whose steps
	// block. It stays with the op, so a caller that reuses one op for its
	// collectives allocates it once.
	Wire interface{ Drop() }
}

// Drop takes back what the backend has posted for an unfinished op: what a
// proc that ends in the middle of a collective must do.
func (op *CollOp) Drop() {
	if op.Wire != nil {
		op.Wire.Drop()
	}
}

// Collective drives op to its end on p (CollectiveStep, each wake awaited
// in place) and returns its error: the blocking form, for a caller that
// may block — a simulated stackful proc, or any live one.
func Collective(p Proc, t Transport, op *CollOp) error {
	for {
		if done, err := t.CollectiveStep(p, op); done {
			return err
		}
		p.(interface{ Await() }).Await()
	}
}

// Check reports whether op is a well-formed part for node of a group of
// nodes: a known kind, a root inside the group, counts for every node,
// none negative, and buffers that hold what the counts say — this node's
// own Gatherv contribution and Scatterv chunk exactly, a root's and an
// Alltoallv's packed buffers at least. Whether the nodes' ops agree with
// each other (one kind and root, equal Bcast lengths, matching Alltoallv
// counts) it cannot see.
func (op *CollOp) Check(nodes, node int) error {
	switch {
	case op.Kind > Alltoallv:
		return fmt.Errorf("transport: unknown collective %v", op.Kind)
	case node < 0 || node >= nodes:
		return fmt.Errorf("transport: %v on node %d of %d", op.Kind, node, nodes)
	case op.Root < 0 || op.Root >= nodes:
		return fmt.Errorf("transport: %v root %d outside %d nodes", op.Kind, op.Root, nodes)
	}
	var send, recv int // the bytes Send and Recv must hold at least
	switch op.Kind {
	case Gatherv, Scatterv:
		total, err := sumCounts(op.Counts, nodes)
		if err != nil {
			return fmt.Errorf("transport: %v %w", op.Kind, err)
		}
		own, root := len(op.Send), &recv
		if op.Kind == Scatterv {
			own, root = len(op.Recv), &send
		}
		if own != op.Counts[node] {
			return fmt.Errorf("transport: %v node %d passes %d bytes, counts say %d", op.Kind, node, own, op.Counts[node])
		}
		if node == op.Root {
			*root = total
		}
	case Alltoallv:
		var err error
		if send, err = sumCounts(op.Counts, nodes); err == nil {
			recv, err = sumCounts(op.RecvCounts, nodes)
		}
		if err != nil {
			return fmt.Errorf("transport: alltoallv %w", err)
		}
	}
	if len(op.Send) < send || len(op.Recv) < recv {
		return fmt.Errorf("transport: %v node %d buffers hold %d and %d bytes, counts need %d and %d",
			op.Kind, node, len(op.Send), len(op.Recv), send, recv)
	}
	return nil
}

// sumCounts returns the sum of per-node counts, one for each of nodes and
// none negative.
func sumCounts(counts []int, nodes int) (int, error) {
	if len(counts) != nodes {
		return 0, fmt.Errorf("has %d counts for %d nodes", len(counts), nodes)
	}
	sum := 0
	for n, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("count %d of node %d is negative", c, n)
		}
		sum += c
	}
	return sum, nil
}

// FaultStats counts the faults a fault-injection middleware has inflicted
// on one endpoint. The zero value means "no faults"; per-node snapshots
// are surfaced through Report.Nodes so chaos runs can assert that the
// engine actually survived something.
type FaultStats struct {
	// Drops counts wire messages silently discarded instead of sent.
	Drops int64
	// Dups counts wire messages transmitted twice.
	Dups int64
	// Reorders counts wire messages held back and sent after a later one.
	Reorders int64
	// Delays counts artificial latency insertions on the receive path.
	Delays int64
	// CollFails counts collective calls failed with ErrTransient.
	CollFails int64
}

// Total returns the number of injected faults across all classes.
func (s FaultStats) Total() int64 {
	return s.Drops + s.Dups + s.Reorders + s.Delays + s.CollFails
}

// Plus returns the field-wise sum of two snapshots (used to aggregate
// per-node stats into a whole-run total).
func (s FaultStats) Plus(o FaultStats) FaultStats {
	return FaultStats{
		Drops:     s.Drops + o.Drops,
		Dups:      s.Dups + o.Dups,
		Reorders:  s.Reorders + o.Reorders,
		Delays:    s.Delays + o.Delays,
		CollFails: s.CollFails + o.CollFails,
	}
}

// WallProc is the Proc of live-backend threads: Now is wall-clock time
// since Epoch, and Sleep is a no-op because modeled overheads are
// replaced by the real cost of execution.
type WallProc struct {
	// Epoch is the instant the run started; Now is measured from it.
	Epoch time.Time
}

// Now returns the wall-clock time elapsed since Epoch.
func (w *WallProc) Now() time.Duration { return time.Since(w.Epoch) }

// Sleep is a no-op: live-backend costs are real, not modeled.
func (w *WallProc) Sleep(time.Duration) {}
