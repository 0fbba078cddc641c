package core

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"dcgn/internal/obs"
)

// TraceRecord is one completed communication request's lifecycle span,
// recorded when Config.Trace is on. It is an alias of obs.Span: Post is
// when the request entered a comm-thread queue, Done is when its issuer
// was released, and the intermediate phase stamps (Dequeued, Handled,
// Matched, WireSent, Acked) locate the time in between layer by layer.
type TraceRecord = obs.Span

// traceSink collects lifecycle spans into one fixed-size ring per node.
// Recording is folded into the request-completion path itself (see
// request.complete → nodeState.recordSpan): a single struct copy under the
// node ring's mutex, with no proc or goroutine per record, so tracing adds
// no scheduling work on either backend.
type traceSink struct {
	rings []*obs.Ring
	// flows enables causal flow tracing (Config.Flows): record assigns
	// every request a span ID and a trace ID from nextSpan.
	flows bool
	// nextSpan holds one span-sequence counter per virtual rank, bumped
	// atomically: one-sided get replies mint spans for the *target* rank
	// from the origin's daemon, which on the live backend can race the
	// target's own kernel thread. On the simulator each counter is only
	// touched from its rank's shard, so atomics cost nothing and the
	// sequence stays bit-deterministic.
	nextSpan []uint64
}

// newTraceSink creates one span ring per node and, with flows on, one
// span-ID counter per virtual rank; capPerNode <= 0 selects
// obs.DefaultRingCap.
func newTraceSink(nodes, ranks, capPerNode int, flows bool) *traceSink {
	ts := &traceSink{rings: make([]*obs.Ring, nodes), flows: flows}
	for i := range ts.rings {
		ts.rings[i] = obs.NewRing(capPerNode)
	}
	if flows {
		ts.nextSpan = make([]uint64, ranks)
	}
	return ts
}

// newSpanID mints the next span ID for a rank: rank+1 in the high 32
// bits (so an ID is never zero) and the rank's sequence number in the
// low 32. Returns zero (no flow) on a released or flows-off sink, so
// engine daemons outliving a runtime job's sink stay safe.
func (ts *traceSink) newSpanID(rank int) uint64 {
	if ts == nil || ts.nextSpan == nil {
		return 0
	}
	seq := atomic.AddUint64(&ts.nextSpan[rank], 1)
	return uint64(rank+1)<<32 | (seq & 0xffffffff)
}

// record marks a freshly-built request for span collection and stamps its
// posting time on the issuing node's substrate clock. With flows on it
// also assigns the request's span ID and — when the request is not
// already part of a flow — roots a new trace at it. The span itself is
// appended when the request completes.
func (ts *traceSink) record(rt rt, req *request) {
	if ts == nil {
		return
	}
	req.traced = true
	req.postedAt = rt.Now()
	if ts.flows {
		req.spanID = ts.newSpanID(req.rank)
		if req.traceID == 0 {
			req.traceID = req.spanID
		}
	}
}

// spans merges the per-node rings, node by node, into one slice for
// Report.Trace. Within a node spans appear in completion order; WriteTrace
// re-sorts by posting time for the chronological table.
func (ts *traceSink) spans() []TraceRecord {
	var out []TraceRecord
	for _, r := range ts.rings {
		out = append(out, r.Snapshot()...)
	}
	return out
}

// dropped totals the spans overwritten across all node rings.
func (ts *traceSink) dropped() uint64 {
	var n uint64
	for _, r := range ts.rings {
		n += r.Dropped()
	}
	return n
}

// recordSpan folds a completed request into its node's span ring. It runs
// inside request.complete — on whichever proc or goroutine finished the
// request — before the issuer is woken, so the Done stamp carries the same
// time the completion was signaled at.
func (ns *nodeState) recordSpan(req *request) {
	ts := ns.job.trace
	if ts == nil {
		return
	}
	var wait time.Duration
	if req.matchedAt > req.handledAt {
		wait = req.matchedAt - req.handledAt
	}
	ts.rings[ns.node].Append(obs.Span{
		Op:         req.op.String(),
		Node:       ns.node,
		Rank:       req.rank,
		Peer:       req.peer,
		Bytes:      len(req.payload()),
		GPU:        req.gpu,
		Failed:     req.err != nil,
		Post:       req.postedAt,
		Dequeued:   req.dequeuedAt,
		Handled:    req.handledAt,
		Matched:    req.matchedAt,
		WireSent:   req.wireSentAt,
		Acked:      req.ackedAt,
		Done:       ns.rt.Now(),
		TraceID:    req.traceID,
		SpanID:     req.spanID,
		ParentID:   req.parentID,
		QueueDepth: req.queueDepth,
		MatchWait:  wait,
	})
}

// recordFlowSpan appends a hand-built span to the node's trace ring.
// The one-sided lane bypasses the request path (no request struct, no
// complete()), so its origin and apply spans are recorded directly;
// no-op unless flow tracing is on.
func (ns *nodeState) recordFlowSpan(sp obs.Span) {
	if !ns.flowsOn || ns.job.trace == nil {
		return
	}
	ns.job.trace.rings[ns.node].Append(sp)
}

// WriteTrace renders the trace as a chronological table. The sort is
// stable, so records posted at the same instant keep their completion
// order (per-node ring order, merged node by node).
func WriteTrace(w io.Writer, records []TraceRecord) {
	sorted := append([]TraceRecord(nil), records...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Post < sorted[j].Post })
	fmt.Fprintf(w, "%-10s %-5s %-5s %-9s %-5s %-14s %-14s %-6s %-12s %s\n",
		"op", "rank", "peer", "bytes", "src", "posted", "done", "depth", "matchwait", "latency")
	for _, r := range sorted {
		src := "cpu"
		if r.GPU {
			src = "gpu"
		}
		status := ""
		if r.Failed {
			status = "  FAILED"
		}
		fmt.Fprintf(w, "%-10s %-5d %-5d %-9d %-5s %-14v %-14v %-6d %-12v %v%s\n",
			r.Op, r.Rank, r.Peer, r.Bytes, src, r.Post, r.Done, r.QueueDepth, r.MatchWait, r.Latency(), status)
	}
}
