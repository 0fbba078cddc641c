package core

import (
	"bytes"
	"testing"
	"time"

	"dcgn/internal/obs"
	"dcgn/internal/obs/flow"
	"dcgn/internal/transport/faults"
)

// flowWorkload is the suite's wire-crossing kernel: a ring of sends and
// receives plus a closing barrier, on any cluster shape.
func flowWorkload(t *testing.T, iters int) func(*CPUCtx) {
	return func(c *CPUCtx) {
		buf := make([]byte, 512)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		for i := 0; i < iters; i++ {
			if c.Rank()%2 == 0 {
				if err := c.Send(next, buf); err != nil {
					t.Error(err)
				}
				if _, err := c.Recv(prev, buf); err != nil {
					t.Error(err)
				}
			} else {
				if _, err := c.Recv(prev, buf); err != nil {
					t.Error(err)
				}
				if err := c.Send(next, buf); err != nil {
					t.Error(err)
				}
			}
		}
		c.Barrier()
	}
}

// spansByID indexes a trace by span ID (zero IDs skipped).
func spansByID(trace []TraceRecord) map[uint64]obs.Span {
	out := make(map[uint64]obs.Span, len(trace))
	for _, s := range trace {
		if s.SpanID != 0 {
			out[s.SpanID] = s
		}
	}
	return out
}

// requireStitched asserts the cross-node stitching invariants on a
// flows-on trace: every span has IDs, every parent reference resolves
// to a member of the same trace, and every wire send's flow contains a
// matched receive.
func requireStitched(t *testing.T, trace []TraceRecord) {
	t.Helper()
	byID := spansByID(trace)
	var stitched int
	for _, s := range trace {
		if s.SpanID == 0 || s.TraceID == 0 {
			t.Fatalf("flows on, but span has zero IDs: %+v", s)
		}
		if s.ParentID == 0 {
			continue
		}
		stitched++
		parent, ok := byID[s.ParentID]
		if !ok {
			t.Fatalf("span %#x has parent %#x, which was never recorded", s.SpanID, s.ParentID)
		}
		if parent.TraceID != s.TraceID {
			t.Fatalf("span %#x (trace %#x) stitched under parent %#x of trace %#x",
				s.SpanID, s.TraceID, parent.SpanID, parent.TraceID)
		}
	}
	if stitched == 0 {
		t.Fatal("no span carried a parent; nothing was stitched")
	}
	for _, f := range flow.Stitch(trace) {
		var sends, recvs int
		for _, s := range f.Spans {
			switch s.Op {
			case "send":
				sends++
			case "recv":
				recvs++
			}
		}
		if sends > 0 && recvs == 0 {
			t.Errorf("trace %#x: %d sends but no stitched receive", f.TraceID, sends)
		}
	}
}

// TestFlowStitchingSim runs the ring workload with flow tracing on and
// checks send→recv spans stitch into cross-node flows: receives carry
// their matching send's trace and span IDs, recorded on a different
// node.
func TestFlowStitchingSim(t *testing.T) {
	cfg := cpuOnlyConfig(3, 2)
	cfg.Flows = true
	job := NewJob(cfg)
	job.SetCPUKernel(flowWorkload(t, 4))
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireStitched(t, rep.Trace)
	byID := spansByID(rep.Trace)
	var crossNode int
	for _, s := range rep.Trace {
		if s.ParentID == 0 {
			continue
		}
		if byID[s.ParentID].Node != s.Node {
			crossNode++
		}
	}
	if crossNode == 0 {
		t.Error("no flow crossed a node boundary; the wire context never propagated")
	}
}

// TestFlowLiveStitching runs the same invariants on the live backend's
// real goroutines.
func TestFlowLiveStitching(t *testing.T) {
	cfg := cpuOnlyConfig(2, 2)
	cfg.Transport.Backend = "live"
	cfg.MaxVirtualTime = 30 * time.Second
	cfg.Flows = true
	job := NewJob(cfg)
	job.SetCPUKernel(flowWorkload(t, 4))
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireStitched(t, rep.Trace)
}

// TestFlowRetransmitKeepsTraceContext drops, duplicates and reorders
// frames under the reliability layer with flows on: retransmitted and
// duplicated frames must still deliver the original trace context, so
// every receive stitches to a recorded send of the same trace even when
// its frame crossed the wire more than once.
func TestFlowRetransmitKeepsTraceContext(t *testing.T) {
	cfg := cpuOnlyConfig(3, 2)
	cfg.Flows = true
	cfg.Reliability.Enabled = true
	cfg.Faults = faults.Config{Seed: 42, Drop: 0.15, Dup: 0.1, Reorder: 0.1}
	job := NewJob(cfg)
	job.SetCPUKernel(flowWorkload(t, 8))
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retransmits == 0 || rep.FaultsInjected.Drops == 0 {
		t.Fatalf("faults did not bite (%d retransmits, %d drops); the test proves nothing",
			rep.Retransmits, rep.FaultsInjected.Drops)
	}
	requireStitched(t, rep.Trace)
}

// TestFlowOneSidedStitching covers the one-sided lane: a cross-node Put
// records an origin "put" span, the target's window apply records a
// "put-apply" span parented on it within the same trace, and a Get's
// target-side "get-serve" span joins the requesting get's flow — so
// one-sided traffic stitches across nodes exactly like two-sided.
func TestFlowOneSidedStitching(t *testing.T) {
	cfg := cpuOnlyConfig(2, 1)
	cfg.Flows = true
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 256)
		win := make([]byte, 256)
		c.RegisterWindow(0, win)
		c.Barrier()
		peer := 1 - c.Rank()
		for k := 1; k <= 3; k++ {
			if c.Rank() == 0 {
				if err := c.Put(peer, 0, 0, buf); err != nil {
					t.Error(err)
				}
				c.WinWait(0, k)
			} else {
				c.WinWait(0, k)
				if err := c.Put(peer, 0, 0, buf); err != nil {
					t.Error(err)
				}
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			if _, err := c.Get(peer, 0, 0, buf); err != nil {
				t.Error(err)
			}
		}
		c.Barrier()
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	byID := spansByID(rep.Trace)
	counts := map[string]int{}
	for _, s := range rep.Trace {
		counts[s.Op]++
		if s.Op != "put-apply" && s.Op != "get-serve" {
			continue
		}
		if s.ParentID == 0 {
			t.Fatalf("%s span %#x has no parent; the wire context never arrived", s.Op, s.SpanID)
		}
		parent, ok := byID[s.ParentID]
		if !ok {
			t.Fatalf("%s span %#x parents on %#x, never recorded", s.Op, s.SpanID, s.ParentID)
		}
		if parent.TraceID != s.TraceID {
			t.Fatalf("%s span %#x (trace %#x) stitched under parent of trace %#x",
				s.Op, s.SpanID, s.TraceID, parent.TraceID)
		}
		if parent.Node == s.Node {
			t.Errorf("%s span %#x stitched to same-node parent; must cross the wire", s.Op, s.SpanID)
		}
	}
	if counts["put"] == 0 || counts["put-apply"] == 0 {
		t.Fatalf("one-sided spans missing: %v", counts)
	}
	if counts["get"] == 0 || counts["get-serve"] == 0 {
		t.Fatalf("get spans missing: %v", counts)
	}
}

// TestFlowCriticalPathSumsToElapsed pins the report-level tiling
// guarantee: Report.CriticalPath covers [0, Elapsed] and its per-phase
// totals sum to exactly the job's end-to-end virtual time.
func TestFlowCriticalPathSumsToElapsed(t *testing.T) {
	cfg := cpuOnlyConfig(3, 2)
	cfg.Flows = true
	cfg.Reliability.Enabled = true
	job := NewJob(cfg)
	job.SetCPUKernel(flowWorkload(t, 4))
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := rep.CriticalPath
	if p.Start != 0 || p.End != rep.Elapsed {
		t.Fatalf("critical path window [%v, %v], want [0, %v]", p.Start, p.End, rep.Elapsed)
	}
	var sum time.Duration
	for _, d := range p.Phases {
		sum += d
	}
	if sum != rep.Elapsed {
		t.Fatalf("phase attribution sums to %v, elapsed is %v", sum, rep.Elapsed)
	}
	if len(p.Segments) == 0 {
		t.Fatal("critical path has no segments")
	}
}

// TestFlowStitchingShardInvariant pins that the sharded engine records
// the identical flow structure: the stitched-flow and critical-path
// renderings must be byte-identical across shard counts, exactly like
// the virtual schedule itself.
func TestFlowStitchingShardInvariant(t *testing.T) {
	render := func(shards int) []byte {
		cfg := cpuOnlyConfig(4, 1)
		cfg.Flows = true
		cfg.Shards = shards
		job := NewJob(cfg)
		job.SetCPUKernel(flowWorkload(t, 4))
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		flow.WriteFlows(&b, flow.Stitch(rep.Trace))
		flow.WritePath(&b, rep.CriticalPath)
		return b.Bytes()
	}
	want := render(0)
	for _, shards := range []int{1, 2, 4} {
		if got := render(shards); !bytes.Equal(got, want) {
			t.Fatalf("stitching diverged between Shards 0 and %d:\n--- Shards 0 ---\n%s--- Shards %d ---\n%s",
				shards, want, shards, got)
		}
	}
}

// TestFlowsOffLeavesTraceLegacy pins the opt-in contract: without
// Config.Flows every span keeps zero IDs, no flow stitches, and the
// report carries no critical path.
func TestFlowsOffLeavesTraceLegacy(t *testing.T) {
	cfg := cpuOnlyConfig(2, 1)
	cfg.Trace = true
	job := NewJob(cfg)
	job.SetCPUKernel(flowWorkload(t, 2))
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Trace {
		if s.TraceID != 0 || s.SpanID != 0 || s.ParentID != 0 {
			t.Fatalf("flows off, but span carries IDs: %+v", s)
		}
	}
	if len(flow.Stitch(rep.Trace)) != 0 {
		t.Error("flows off, but spans stitched")
	}
	if len(rep.CriticalPath.Segments) != 0 {
		t.Error("flows off, but the report grew a critical path")
	}
}

// TestFlowSendrecvJoinsParentFlow checks the combined sendrecv op: the
// receive half adopts the incoming flow and links the issuing span to
// the peer's. In a symmetric exchange both peers root their own flow
// and adopt each other's, so every span's parent must resolve to a
// span on the other rank and the adopted trace must be the peer's root
// (its span ID).
func TestFlowSendrecvJoinsParentFlow(t *testing.T) {
	cfg := cpuOnlyConfig(2, 1)
	cfg.Flows = true
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 128)
		out := make([]byte, 128)
		peer := 1 - c.Rank()
		for i := 0; i < 3; i++ {
			if _, err := c.SendRecv(peer, out, peer, buf); err != nil {
				t.Error(err)
			}
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	byID := spansByID(rep.Trace)
	var adopted int
	for _, s := range rep.Trace {
		if s.Op != "sendrecv" {
			continue
		}
		if s.SpanID == 0 || s.TraceID == 0 {
			t.Fatalf("flows on, but sendrecv span has zero IDs: %+v", s)
		}
		if s.ParentID == 0 {
			continue
		}
		adopted++
		parent, ok := byID[s.ParentID]
		if !ok {
			t.Fatalf("sendrecv %#x has parent %#x, which was never recorded", s.SpanID, s.ParentID)
		}
		if parent.Rank == s.Rank {
			t.Errorf("sendrecv %#x stitched to same-rank parent %#x; the link must cross the exchange", s.SpanID, s.ParentID)
		}
		if s.TraceID != parent.SpanID {
			t.Errorf("sendrecv %#x adopted trace %#x, want its parent's root %#x", s.SpanID, s.TraceID, parent.SpanID)
		}
	}
	if adopted == 0 {
		t.Fatal("no sendrecv adopted the incoming flow")
	}
}
