// Package obs is the engine's observability layer: lifecycle spans for
// every communication request (collected into fixed-size per-node ring
// buffers), a low-overhead metrics registry (counters, gauges and
// log2-bucketed histograms), and exporters — a Chrome trace-event writer
// whose output loads in Perfetto, a CSV writer, and an expvar-style HTTP
// snapshot handler for live inspection mid-run.
//
// The package is clock-agnostic: spans carry time.Duration offsets from
// the run's epoch, so the deterministic simulator's virtual clock and the
// live backend's wall clock produce the same shapes. Everything here is
// host-side bookkeeping — recording a span or bumping a histogram never
// advances virtual time, so enabling observability cannot perturb a
// simulated run's results.
package obs

import (
	"fmt"
	"math/bits"
	"time"
)

// Span is one communication request's recorded lifecycle: identity (op,
// ranks, payload, source), outcome, and the phase timestamps the progress
// engine stamped as the request moved through its layers. A zero
// timestamp (other than Post) means the request never reached that phase
// — e.g. only wire-routed sends have WireSent, and only the reliability
// layer stamps Acked.
type Span struct {
	// Op is the request kind ("send", "recv", "barrier", ...).
	Op string
	// Node is the node whose progress engine serviced the request.
	Node int
	// Rank is the issuing virtual rank.
	Rank int
	// Peer is the destination (sends), source (receives) or root
	// (collectives).
	Peer int
	// Bytes is the primary payload length.
	Bytes int
	// GPU marks requests issued by a device slot.
	GPU bool
	// Failed marks requests that completed with an error.
	Failed bool

	// Post is when the request entered the node's intake queue.
	Post time.Duration
	// Dequeued is when the comm thread pulled it off the intake stream.
	Dequeued time.Duration
	// Handled is when the comm thread routed it into the matching layer
	// (point-to-point requests only).
	Handled time.Duration
	// Matched is when a counterpart arrived in the matching index; zero for
	// requests that never enter the index (collectives, wire-routed sends).
	Matched time.Duration
	// WireSent is when the transport send of a wire-routed message
	// returned; zero for locally-matched traffic.
	WireSent time.Duration
	// Acked is when the reliability layer saw the frame acknowledged; zero
	// without Config.Reliability.
	Acked time.Duration
	// Done is when the request's issuer was released.
	Done time.Duration

	// TraceID identifies the causal message flow this span belongs to
	// (Config.Flows); it is the SpanID of the flow's root span and zero
	// when flow tracing is off.
	TraceID uint64
	// SpanID uniquely identifies this span within its job: the issuing
	// rank in the high 32 bits (offset by one so the id is never zero) and
	// a per-rank sequence number in the low 32. Zero when flow tracing is
	// off.
	SpanID uint64
	// ParentID is the SpanID of the causally-preceding span — for a
	// matched receive, the send that produced its payload. Zero for flow
	// roots and when flow tracing is off.
	ParentID uint64

	// QueueDepth is the number of pending entries in the node's matching
	// index when the comm thread first handled the request.
	QueueDepth int
	// MatchWait is how long the request sat in the matching index before a
	// counterpart arrived; zero for requests that matched immediately and
	// for operations that never enter the index.
	MatchWait time.Duration
}

// Latency is the request's total time in the runtime.
func (s Span) Latency() time.Duration { return s.Done - s.Post }

// sizeClasses are the precomputed power-of-two payload labels used in
// metric keys, indexed by bits.Len of the byte count: class i covers
// [2^(i-1), 2^i), labeled by its exclusive upper bound.
var sizeClasses = func() [64]string {
	var out [64]string
	out[0] = "0B"
	for i := 1; i < 64; i++ {
		ub := uint64(1) << i
		switch {
		case ub < 1<<10:
			out[i] = fmt.Sprintf("<%dB", ub)
		case ub < 1<<20:
			out[i] = fmt.Sprintf("<%dKiB", ub>>10)
		case ub < 1<<30:
			out[i] = fmt.Sprintf("<%dMiB", ub>>20)
		default:
			out[i] = fmt.Sprintf("<%dGiB", ub>>30)
		}
	}
	return out
}()

// SizeClassIndex returns the log2 size-class index of a byte count: 0 for
// empty payloads, otherwise bits.Len(n) so class i covers [2^(i-1), 2^i).
func SizeClassIndex(n int) uint8 {
	if n <= 0 {
		return 0
	}
	return uint8(bits.Len64(uint64(n)))
}

// SizeClass renders size class i's label ("0B", "<2B", "<8KiB", ...), the
// size key used in per-message metric names.
func SizeClass(i uint8) string { return sizeClasses[i] }
