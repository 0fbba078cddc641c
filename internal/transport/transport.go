// Package transport defines the wire seam of the DCGN progress engine:
// the interface between a node's engine (internal/core) and whatever
// substrate actually moves bytes between nodes.
//
// The paper's design (§3.2.2) has the communication thread own "the
// underlying communication library" — MPI in the original. Everything the
// engine needs from that library is node-level, and it is one interface,
// Transport, with two lanes:
//
//   - the two-sided lane (Send/RecvMsg) and the node-level collectives
//     serve the comm thread: send one framed wire message to a peer node,
//     block for the next inbound one, run a collective once every resident
//     rank has joined;
//   - the one-sided lane (SendOneSided/RecvOneSided) models an RDMA-capable
//     NIC: frames posted here never enter the comm thread's intake→matcher
//     path at either end — the origin posts from the producing thread (a
//     CPU kernel or a GPU-triggered NIC daemon) and the target's sink
//     daemon applies them straight into registered windows. Every transport
//     carries it; an engine that never registers a window never calls it.
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
// Send and RecvMsg carry opaque framed wire messages (internal/core's
// header + payload), and both take ownership. msg comes from the job's
// buffer pool and belongs to the transport once Send is called: it is the
// buffer the receiving endpoint's RecvMsg returns, and on every path
// exactly one party releases it to the pool — the receiver once it has
// delivered it, or the transport when it drops the message, is closed or
// fails the send. SendOneSided and RecvOneSided mirror them exactly on the
// one-sided lane, whose frames never mix with the RecvMsg stream.
//
// The collectives are node-level (one call per node, every node
// participating), mirroring the paper's "one MPI collective per node once
// all resident ranks have joined" pattern (§3.2.3).
type Transport interface {
	// Send transmits one framed wire message to dstNode, taking ownership
	// of msg, and blocks until the message is queued or delivered.
	Send(p Proc, dstNode int, msg []byte) error
	// RecvMsg blocks until the next inbound wire message arrives and
	// transfers ownership of its buffer to the caller. After Close it
	// returns ErrClosed (live backend; see Close).
	RecvMsg(p Proc) ([]byte, error)
	// SendOneSided transmits one framed one-sided message (a put, get or
	// atomic descriptor, or an ack of one) to dstNode's one-sided lane,
	// taking ownership of frame as Send does.
	SendOneSided(p Proc, dstNode int, frame []byte) error
	// RecvOneSided blocks until the next inbound one-sided frame arrives
	// and transfers ownership of its buffer to the caller. After Close it
	// returns ErrClosed.
	RecvOneSided(p Proc) ([]byte, error)
	// Barrier blocks until every node has entered the barrier.
	Barrier(p Proc) error
	// Bcast broadcasts buf from rootNode; every node passes an
	// equal-length buffer.
	Bcast(p Proc, buf []byte, rootNode int) error
	// Gatherv concatenates each node's sendBuf (len counts[node]) into
	// rootNode's recvBuf in node order; recvBuf may be nil elsewhere.
	Gatherv(p Proc, sendBuf, recvBuf []byte, counts []int, rootNode int) error
	// Scatterv splits rootNode's sendBuf by counts and delivers chunk
	// counts[node] into each node's recvBuf; sendBuf may be nil elsewhere.
	Scatterv(p Proc, sendBuf []byte, counts []int, recvBuf []byte, rootNode int) error
	// Alltoallv exchanges variable-size segments: node i's sendBuf segment
	// j (length sendCounts[j]) lands in node j's recvBuf segment i (length
	// recvCounts[i]), with segments packed in node order.
	Alltoallv(p Proc, sendBuf []byte, sendCounts []int, recvBuf []byte, recvCounts []int) error
	// Close shuts the endpoint down; it is idempotent. On the live backend
	// it wakes blocked receivers and collective participants with
	// ErrClosed, which is how a run is torn down. A simulated endpoint's
	// Close is a no-op and no receiver ever sees ErrClosed there: procs
	// blocked in it are killed by the simulator, with their tenant's proc
	// group or at the end of the run.
	Close() error
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
