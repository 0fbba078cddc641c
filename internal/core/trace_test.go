package core

import (
	"strings"
	"testing"
	"time"

	"dcgn/internal/sim"
)

// TestWriteTraceGolden pins the table rendering byte for byte: column
// layout, cpu/gpu source labels, and the FAILED marker. The table is the
// oldest user-facing surface of the trace layer; the span schema may grow
// (and did, in the obs refactor) but this output must not shift.
func TestWriteTraceGolden(t *testing.T) {
	records := []TraceRecord{
		{
			Op: "recv", Rank: 3, Peer: 0, Bytes: 4096, GPU: true,
			Post: 9 * time.Microsecond, Done: 42 * time.Microsecond,
			QueueDepth: 2, MatchWait: 11 * time.Microsecond,
		},
		{
			Op: "send", Rank: 0, Peer: 3, Bytes: 64,
			Post: 1 * time.Microsecond, Done: 5 * time.Microsecond,
		},
		{
			Op: "barrier", Rank: 1, Peer: 0, Bytes: 0, Failed: true,
			Post: 20 * time.Microsecond, Done: 120 * time.Microsecond,
		},
	}
	var b strings.Builder
	WriteTrace(&b, records)
	want := strings.Join([]string{
		"op         rank  peer  bytes     src   posted         done           depth  matchwait    latency",
		"send       0     3     64        cpu   1µs            5µs            0      0s           4µs",
		"recv       3     0     4096      gpu   9µs            42µs           2      11µs         33µs",
		"barrier    1     0     0         cpu   20µs           120µs          0      0s           100µs  FAILED",
		"",
	}, "\n")
	if got := b.String(); got != want {
		t.Errorf("table output changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteTraceSortStability pins that records posted at the same
// instant keep their input order (per-node completion order, merged node
// by node) — the sort is stable, so a many-node trace is reproducible.
func TestWriteTraceSortStability(t *testing.T) {
	post := 7 * time.Microsecond
	records := []TraceRecord{
		{Op: "send", Rank: 2, Peer: 0, Post: post, Done: 9 * time.Microsecond},
		{Op: "send", Rank: 0, Peer: 1, Post: post, Done: 8 * time.Microsecond},
		{Op: "send", Rank: 1, Peer: 2, Post: post, Done: 10 * time.Microsecond},
	}
	var b strings.Builder
	WriteTrace(&b, records)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 3 rows, got %d lines", len(lines))
	}
	for i, wantRank := range []string{"2", "0", "1"} {
		fields := strings.Fields(lines[i+1])
		if fields[1] != wantRank {
			t.Errorf("row %d rank = %s, want %s (input order not preserved on equal Post)", i, fields[1], wantRank)
		}
	}
}

// TestTraceSpanPhases runs a reliable wire workload and checks every
// span's phase stamps are present and ordered: posted <= dequeued <=
// handled <= done for point-to-point requests, wire sends stamp WireSent
// and (with reliability on) Acked, and matched receives carry the
// matching-index wait.
func TestTraceSpanPhases(t *testing.T) {
	cfg := cpuOnlyConfig(2, 1)
	cfg.Trace = true
	cfg.Reliability.Enabled = true
	job := NewJob(cfg)
	const iters = 4
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 1024)
		for i := 0; i < iters; i++ {
			switch c.Rank() {
			case 0:
				if err := c.Send(1, buf); err != nil {
					t.Error(err)
				}
			case 1:
				if _, err := c.Recv(0, buf); err != nil {
					t.Error(err)
				}
			}
		}
		c.Barrier()
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sends, recvs int
	for _, s := range rep.Trace {
		if s.Post <= 0 || s.Done < s.Post {
			t.Fatalf("span %+v: bad post/done", s)
		}
		if s.Dequeued < s.Post {
			t.Errorf("span %+v: dequeued before posted", s)
		}
		switch s.Op {
		case "send":
			sends++
			if s.Handled < s.Dequeued {
				t.Errorf("send span %+v: handled before dequeued", s)
			}
			if s.WireSent < s.Handled {
				t.Errorf("remote send span %+v: missing or early WireSent", s)
			}
			if s.Acked < s.WireSent {
				t.Errorf("reliable send span %+v: missing or early Acked", s)
			}
			if s.Done < s.Acked {
				t.Errorf("send span %+v: done before acked", s)
			}
		case "recv":
			recvs++
			if s.Matched < s.Handled {
				t.Errorf("recv span %+v: missing or early Matched", s)
			}
			if want := s.Matched - s.Handled; s.MatchWait != want {
				t.Errorf("recv span %+v: MatchWait %v, want %v", s, s.MatchWait, want)
			}
		}
	}
	if sends != iters || recvs != iters {
		t.Fatalf("traced %d sends / %d recvs, want %d each", sends, recvs, iters)
	}
}

// TestTraceRingCap pins the fixed-size ring semantics: a tiny TraceCap
// keeps only the most recent spans per node and reports the overwrites.
func TestTraceRingCap(t *testing.T) {
	cfg := cpuOnlyConfig(2, 1)
	cfg.Trace = true
	cfg.TraceCap = 4
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 64)
		for i := 0; i < 16; i++ {
			switch c.Rank() {
			case 0:
				if err := c.Send(1, buf); err != nil {
					t.Error(err)
				}
			case 1:
				if _, err := c.Recv(0, buf); err != nil {
					t.Error(err)
				}
			}
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) != 2*cfg.TraceCap {
		t.Errorf("kept %d spans, want %d (cap x nodes)", len(rep.Trace), 2*cfg.TraceCap)
	}
	if rep.TraceDropped == 0 {
		t.Error("TraceDropped = 0; overwrites were not reported")
	}
}

// TestObservabilityDoesNotPerturbVirtualTime runs one workload bare, with
// spans, and with spans + metrics: all three must report the identical
// virtual schedule. Observability is host-side bookkeeping only — if a
// stamp or histogram ever costs virtual time, golden determinism would
// silently fork between traced and untraced runs.
func TestObservabilityDoesNotPerturbVirtualTime(t *testing.T) {
	run := func(trace, metrics bool) Report {
		cfg := cpuOnlyConfig(3, 2)
		cfg.Trace, cfg.Metrics = trace, metrics
		cfg.Reliability.Enabled = true
		job := NewJob(cfg)
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 512)
			next := (c.Rank() + 1) % 6
			prev := (c.Rank() + 5) % 6
			for i := 0; i < 4; i++ {
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
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	bare := run(false, false)
	traced := run(true, false)
	full := run(true, true)
	for _, rep := range []Report{traced, full} {
		if rep.Elapsed != bare.Elapsed || rep.NetPackets != bare.NetPackets ||
			rep.NetBytes != bare.NetBytes || rep.Requests != bare.Requests {
			t.Fatalf("observability perturbed the run: bare {%v %d %d %d} vs {%v %d %d %d}",
				bare.Elapsed, bare.NetPackets, bare.NetBytes, bare.Requests,
				rep.Elapsed, rep.NetPackets, rep.NetBytes, rep.Requests)
		}
	}
	if len(traced.Trace) == 0 || len(full.Histograms) == 0 {
		t.Fatal("observability was supposed to be on")
	}
}

// BenchmarkRecordSpan measures the per-request cost of span collection:
// one struct copy into the node's ring under its mutex. The previous
// design spawned a daemon per traced request (a proc allocation plus
// scheduler churn each); the ring append must stay allocation-free.
func BenchmarkRecordSpan(b *testing.B) {
	s := sim.New()
	j := &Job{trace: newTraceSink(1, 1, 1024, false)}
	ns := &nodeState{job: j, node: 0, rt: simRT{s: s}}
	req := &request{op: opSend, rank: 0, peer: 1, ns: ns, traced: true,
		postedAt: time.Microsecond, handledAt: 2 * time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ns.recordSpan(req)
	}
}
