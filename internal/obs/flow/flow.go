// Package flow is the causal message-flow layer over the engine's
// lifecycle spans (internal/obs): it stitches send/recv/ack spans that
// share a trace ID into end-to-end message flows, segments each span
// into its pipeline phases (queue, dispatch, match wait, wire, ack
// wait, notification, collective accumulation), and extracts a job's
// critical path — the chain of spans and compute gaps that tiles the
// job's elapsed window exactly, so per-phase attribution sums to the
// end-to-end latency with no residue.
//
// The package is pure data analysis: it never touches the engine, so
// it works identically on spans from the deterministic simulator and
// the live backend. On the simulator both stitching and critical-path
// extraction are bit-deterministic per seed — every tie in the
// algorithms below breaks on (time, SpanID), never on map order.
package flow

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dcgn/internal/obs"
)

// Phase labels. Every span tiles [Post, Done] with a subset of these;
// the critical path adds PhaseCompute for the gaps between spans and
// the loadgen SLO report adds PhaseSchedWait for admission-queue time.
const (
	// PhaseSchedWait is runtime admission-queue wait (submit to node
	// assignment); attributed by the serving layer, not by spans.
	PhaseSchedWait = "sched_wait"
	// PhaseQueue is intake-queue wait: posted to comm-thread dequeue.
	PhaseQueue = "queue"
	// PhaseDispatch is comm-thread routing: dequeue to matching-layer
	// handling.
	PhaseDispatch = "dispatch"
	// PhaseMatchWait is time in the matching index awaiting a
	// counterpart.
	PhaseMatchWait = "match_wait"
	// PhaseWire is transport-send time of a wire-routed message.
	PhaseWire = "wire"
	// PhaseAckWait is the reliability layer's wire-send-to-ack wait,
	// including every retransmit backoff.
	PhaseAckWait = "ack_wait"
	// PhaseNotify is completion signaling back to the issuer (including
	// the local delivery memcpy of matched traffic).
	PhaseNotify = "notify"
	// PhaseCollAccum is collective-accumulation wait: a collective
	// request's time between dispatch and release.
	PhaseCollAccum = "coll_accum"
	// PhaseCompute is critical-path time not covered by any span — the
	// application computing (or idle) between communication requests.
	PhaseCompute = "compute"
)

// Phases is the canonical phase order for rendering and for reports
// that must observe every phase (present or zero) per job.
var Phases = []string{
	PhaseSchedWait, PhaseQueue, PhaseDispatch, PhaseMatchWait,
	PhaseWire, PhaseAckWait, PhaseNotify, PhaseCollAccum, PhaseCompute,
}

// Segment is one contiguous phase interval on a span or path.
type Segment struct {
	// Phase is the Phase* label.
	Phase string `json:"phase"`
	// Start and End are offsets from the run epoch, in nanoseconds.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Op, Node, Rank and Peer identify the owning span; empty/zero for
	// compute segments.
	Op   string `json:"op,omitempty"`
	Node int    `json:"node,omitempty"`
	Rank int    `json:"rank,omitempty"`
	Peer int    `json:"peer,omitempty"`
	// TraceID and SpanID link the segment back to its flow; zero for
	// compute segments.
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// Dur is the segment's length.
func (s Segment) Dur() time.Duration { return s.End - s.Start }

// Path is a critical path: segments tiling [Start, End] exactly, plus
// the per-phase totals. Sum of Phases always equals End - Start.
type Path struct {
	// Start and End bound the analyzed window.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Segments tile [Start, End] in chronological order.
	Segments []Segment `json:"segments,omitempty"`
	// Phases totals segment time by phase label.
	Phases map[string]time.Duration `json:"phases,omitempty"`
}

// Total is the path's window length — by construction also the sum of
// its per-phase totals.
func (p Path) Total() time.Duration { return p.End - p.Start }

// Flow is one stitched causal message flow: every span sharing a trace
// ID, root first.
type Flow struct {
	// TraceID is the flow's identity (the root span's SpanID).
	TraceID uint64 `json:"trace_id"`
	// Start is the earliest Post and End the latest Done across spans.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Spans are the flow's members, ordered by (Post, SpanID).
	Spans []obs.Span `json:"spans"`
	// Phases totals per-span phase segmentation across the flow (span
	// time can overlap between members; this is attribution, not a
	// tiling).
	Phases map[string]time.Duration `json:"phases"`
}

// Latency is the flow's end-to-end span: first post to last release.
func (f Flow) Latency() time.Duration { return f.End - f.Start }

// isCollective reports whether an op accumulates (its tail is
// collective-accumulation wait, not completion notification).
func isCollective(op string) bool {
	switch op {
	case "send", "recv", "sendrecv", "put", "get", "put-apply":
		return false
	}
	return true
}

// SpanSegments tiles one span's [Post, Done] with its phase intervals,
// derived from the engine's lifecycle stamps. Zero stamps (phases the
// request never reached) contribute nothing; out-of-order or clamped
// stamps never produce negative segments.
func SpanSegments(s obs.Span) []Segment {
	tag := func(phase string, from, to time.Duration) Segment {
		return Segment{
			Phase: phase, Start: from, End: to,
			Op: s.Op, Node: s.Node, Rank: s.Rank, Peer: s.Peer,
			TraceID: s.TraceID, SpanID: s.SpanID,
		}
	}
	var out []Segment
	cursor := s.Post
	cut := func(phase string, at time.Duration) {
		if at <= cursor || at > s.Done {
			return
		}
		out = append(out, tag(phase, cursor, at))
		cursor = at
	}
	cut(PhaseQueue, s.Dequeued)
	cut(PhaseDispatch, s.Handled)
	cut(PhaseMatchWait, s.Matched)
	cut(PhaseWire, s.WireSent)
	cut(PhaseAckWait, s.Acked)
	if cursor < s.Done {
		tail := PhaseNotify
		if isCollective(s.Op) {
			tail = PhaseCollAccum
		}
		out = append(out, tag(tail, cursor, s.Done))
	}
	return out
}

// Stitch groups spans by trace ID into flows. Spans without a trace ID
// (flow tracing off, or engine-internal requests) are skipped. Output
// order is deterministic: flows by (Start, TraceID), members by
// (Post, SpanID).
func Stitch(spans []obs.Span) []Flow {
	byTrace := make(map[uint64][]obs.Span)
	for _, s := range spans {
		if s.TraceID == 0 {
			continue
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	out := make([]Flow, 0, len(byTrace))
	for id, members := range byTrace {
		sort.Slice(members, func(i, j int) bool {
			if members[i].Post != members[j].Post {
				return members[i].Post < members[j].Post
			}
			return members[i].SpanID < members[j].SpanID
		})
		f := Flow{TraceID: id, Spans: members, Phases: make(map[string]time.Duration)}
		f.Start, f.End = members[0].Post, members[0].Done
		for _, s := range members {
			if s.Post < f.Start {
				f.Start = s.Post
			}
			if s.Done > f.End {
				f.End = s.Done
			}
			for _, seg := range SpanSegments(s) {
				f.Phases[seg.Phase] += seg.Dur()
			}
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// TopK returns the k slowest flows by end-to-end latency, ties broken
// by ascending trace ID so the selection is deterministic.
func TopK(flows []Flow, k int) []Flow {
	out := append([]Flow(nil), flows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency() != out[j].Latency() {
			return out[i].Latency() > out[j].Latency()
		}
		return out[i].TraceID < out[j].TraceID
	})
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// CriticalPath extracts the chain of spans whose durations tile the
// window [start, end] exactly, by backward chaining: from the window's
// end, repeatedly pick the span that completed latest at or before the
// cursor, attribute the gap above it (if any) to compute, descend the
// span's own phase segments, and continue from its posting time. Time
// before the earliest span is compute as well. By construction the
// returned path's per-phase totals sum to exactly end - start.
//
// Ties (two spans completing at the same instant) break toward the
// later-posted span, then the smaller SpanID, so the extraction is
// bit-deterministic for a deterministic span set.
func CriticalPath(spans []obs.Span, start, end time.Duration) Path {
	p := Path{Start: start, End: end, Phases: make(map[string]time.Duration)}
	if end <= start {
		return p
	}
	// Candidates: spans with positive extent inside the window.
	cands := make([]obs.Span, 0, len(spans))
	for _, s := range spans {
		if s.Done > s.Post && s.Post < end && s.Done > start {
			cands = append(cands, s)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Done != cands[j].Done {
			return cands[i].Done < cands[j].Done
		}
		if cands[i].Post != cands[j].Post {
			return cands[i].Post < cands[j].Post
		}
		return cands[i].SpanID < cands[j].SpanID
	})

	// Built backward; reversed before returning.
	var rev []Segment
	compute := func(from, to time.Duration) {
		if to > from {
			rev = append(rev, Segment{Phase: PhaseCompute, Start: from, End: to})
		}
	}
	cursor := end
	for cursor > start {
		// Latest-finishing span with Done <= cursor (binary search over
		// the Done-sorted candidates), preferring the latest-posted on
		// equal Done (the sort placed it last).
		i := sort.Search(len(cands), func(i int) bool { return cands[i].Done > cursor }) - 1
		if i < 0 {
			compute(start, cursor)
			break
		}
		s := cands[i]
		compute(s.Done, cursor)
		lo := s.Post
		if lo < start {
			lo = start
		}
		segs := SpanSegments(s)
		for j := len(segs) - 1; j >= 0; j-- {
			seg := segs[j]
			if seg.End <= lo {
				continue
			}
			if seg.Start < lo {
				seg.Start = lo
			}
			rev = append(rev, seg)
		}
		cursor = lo
	}
	for i := len(rev) - 1; i >= 0; i-- {
		p.Segments = append(p.Segments, rev[i])
		p.Phases[rev[i].Phase] += rev[i].Dur()
	}
	return p
}

// WritePath renders a critical path as an aligned phase table followed
// by the segment chain, deterministic for deterministic input.
func WritePath(w io.Writer, p Path) {
	fmt.Fprintf(w, "critical path: %v over [%v, %v]\n", p.Total(), p.Start, p.End)
	total := p.Total()
	for _, phase := range Phases {
		d, ok := p.Phases[phase]
		if !ok {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(w, "  %-12s %14v  %5.1f%%\n", phase, d, pct)
	}
	fmt.Fprintln(w, "segments:")
	for _, seg := range p.Segments {
		if seg.Op == "" {
			fmt.Fprintf(w, "  %-14v %-12s %v\n", seg.Start, seg.Phase, seg.Dur())
			continue
		}
		fmt.Fprintf(w, "  %-14v %-12s %v  %s rank %d -> %d (node %d, span %#x)\n",
			seg.Start, seg.Phase, seg.Dur(), seg.Op, seg.Rank, seg.Peer, seg.Node, seg.SpanID)
	}
}

// WriteFlows renders flows (typically TopK output) as one block per
// flow: identity, latency, per-phase attribution and the member spans.
func WriteFlows(w io.Writer, flows []Flow) {
	for i, f := range flows {
		fmt.Fprintf(w, "flow %d: trace %#x, %v end-to-end, %d spans\n", i+1, f.TraceID, f.Latency(), len(f.Spans))
		for _, phase := range Phases {
			d, ok := f.Phases[phase]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-12s %14v\n", phase, d)
		}
		for _, s := range f.Spans {
			arrow := "root"
			if s.ParentID != 0 {
				arrow = fmt.Sprintf("parent %#x", s.ParentID)
			}
			fmt.Fprintf(w, "  %-10s rank %-4d peer %-4d node %-3d span %#-12x %s  [%v, %v]\n",
				s.Op, s.Rank, s.Peer, s.Node, s.SpanID, arrow, s.Post, s.Done)
		}
	}
}
