package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSizeClass(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{0, "0B"},
		{1, "<2B"},
		{2, "<4B"},
		{3, "<4B"},
		{1023, "<1KiB"},
		{1024, "<2KiB"},
		{4096, "<8KiB"},
		{1 << 20, "<2MiB"},
	}
	for _, c := range cases {
		if got := SizeClass(SizeClassIndex(c.n)); got != c.want {
			t.Errorf("SizeClass(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestRingAppendAndOverwrite(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Append(Span{Rank: i})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	snap := r.Snapshot()
	for i, s := range snap {
		if s.Rank != i+2 {
			t.Fatalf("snapshot[%d].Rank = %d, want %d (oldest-first order)", i, s.Rank, i+2)
		}
	}
}

func TestRingDefaultCap(t *testing.T) {
	r := NewRing(0)
	if cap(r.buf) != DefaultRingCap {
		t.Fatalf("cap = %d, want %d", cap(r.buf), DefaultRingCap)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &Histogram{}
	// 90 small observations and 10 large ones: p50 lands in the small
	// bucket, p99 in the large one.
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7: [64, 128)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // bucket 17: [65536, 131072)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if want := int64(90*100 + 10*100000); s.Sum != want {
		t.Fatalf("Sum = %d, want %d", s.Sum, want)
	}
	for _, c := range []struct{ q, lo, hi float64 }{
		{0.5, 64, 128}, {0.99, 65536, 131072}, {0, 64, 64}, {1, 65536, 131072},
	} {
		if got := s.QuantileF(c.q); got < c.lo || got > c.hi {
			t.Errorf("QuantileF(%v) = %v, want it in its bucket [%v, %v]", c.q, got, c.lo, c.hi)
		}
	}
	if m := s.Mean(); m != float64(s.Sum)/100 {
		t.Errorf("Mean = %v", m)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 2 || len(s.Buckets) != 1 || s.Buckets[0] != 2 {
		t.Fatalf("snapshot = %+v, want both observations in bucket 0", s)
	}
	if got := s.QuantileF(0.5); got != 0 {
		t.Errorf("p50 = %v, want 0", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	s := h.Snapshot()
	if s.QuantileF(0.5) != 0 || s.Mean() != 0 || s.Buckets == nil || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot misbehaves: %+v", s)
	}
}

// TestHistogramSnapshotKeepsOnlyItsPrefix: a snapshot allocates the
// buckets it keeps, up to the last non-empty one, and nothing else.
func TestHistogramSnapshotKeepsOnlyItsPrefix(t *testing.T) {
	h := &Histogram{}
	h.Observe(100) // bucket 7
	s := h.Snapshot()
	if len(s.Buckets) != 8 || cap(s.Buckets) != 8 || s.Buckets[7] != 1 {
		t.Fatalf("buckets %v (cap %d), want 8 ending in bucket 7's count", s.Buckets, cap(s.Buckets))
	}
	if a := testing.AllocsPerRun(100, func() { h.Snapshot() }); a != 1 {
		t.Errorf("Snapshot: %v allocations, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { (&Histogram{}).Snapshot() }); a != 0 {
		t.Errorf("empty Snapshot: %v allocations, want 0", a)
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("acks")
	c.Add(3)
	if r.Counter("acks") != c {
		t.Fatal("Counter not memoized")
	}
	g := r.Gauge("depth")
	g.Set(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax lowered the gauge: %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax did not raise the gauge: %d", g.Value())
	}
	r.Histogram("wait").Observe(42)
	r.Histogram("idle") // never observed: not in the snapshot
	snap := r.Snapshot()
	if snap.Counters["acks"] != 3 || snap.Gauges["depth"] != 9 || snap.Histograms["wait"].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot histograms = %v, want only the observed one", snap.Histograms)
	}
}

func sampleSpans() []Span {
	return []Span{
		{
			Op: "send", Node: 0, Rank: 0, Peer: 2, Bytes: 1024,
			Post: 10 * time.Microsecond, Dequeued: 12 * time.Microsecond,
			Handled: 13 * time.Microsecond, WireSent: 20 * time.Microsecond,
			Acked: 30 * time.Microsecond, Done: 31 * time.Microsecond,
			QueueDepth: 1,
		},
		{
			Op: "recv", Node: 1, Rank: 2, Peer: 0, Bytes: 1024, GPU: true,
			Post: 11 * time.Microsecond, Dequeued: 14 * time.Microsecond,
			Handled: 15 * time.Microsecond, Matched: 25 * time.Microsecond,
			Done: 26 * time.Microsecond, MatchWait: 10 * time.Microsecond,
		},
		{
			Op: "recv", Node: 1, Rank: 3, Peer: 0, Bytes: 64, Failed: true,
			Post: 12 * time.Microsecond, Done: 40 * time.Microsecond,
		},
	}
}

func TestBuildChromeTrace(t *testing.T) {
	tr := BuildChromeTrace(sampleSpans())
	var meta, slices int
	tracks := map[[2]int]bool{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices++
			tracks[[2]int{ev.Pid, ev.Tid}] = true
			if ev.Dur < 0 {
				t.Errorf("negative duration: %+v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	// 2 nodes x (1 process_name + 5 thread_name).
	if meta != 12 {
		t.Errorf("metadata events = %d, want 12", meta)
	}
	// span 0: request+intake+wire+ack; span 1: request+intake+match;
	// span 2: request only.
	if slices != 8 {
		t.Errorf("slices = %d, want 8", slices)
	}
	for _, want := range [][2]int{
		{0, TrackRequest}, {0, TrackIntake}, {0, TrackWire}, {0, TrackAck},
		{1, TrackRequest}, {1, TrackIntake}, {1, TrackMatch},
	} {
		if !tracks[want] {
			t.Errorf("missing slice on node %d track %s", want[0], TrackNames[want[1]])
		}
	}
	if tracks[[2]int{1, TrackWire}] {
		t.Error("unexpected wire slice for a local recv")
	}
}

func TestWriteChromeTraceRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	var decoded ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid trace-event JSON: %v", err)
	}
	if len(decoded.TraceEvents) == 0 {
		t.Fatal("no events decoded")
	}
	// Determinism: same spans, same bytes.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("chrome trace output is not deterministic")
	}
}

// TestChromeTraceFlowEvents pins the flow-arrow schema: a flowed
// wire-send emits "s" at its transport send and "f" (bp "e") at its
// ack, both carrying its SpanID; the stitched receive emits "t" at its
// match time carrying the ParentID that links back. Zero-ID spans —
// flow tracing off — must emit no flow event at all, keeping legacy
// traces byte-identical.
func TestChromeTraceFlowEvents(t *testing.T) {
	spans := sampleSpans()
	legacy := BuildChromeTrace(spans)
	for _, ev := range legacy.TraceEvents {
		if ev.Ph == "s" || ev.Ph == "t" || ev.Ph == "f" {
			t.Fatalf("zero-ID span emitted a flow event: %+v", ev)
		}
	}
	spans[0].TraceID, spans[0].SpanID = 0x100000001, 0x100000001
	spans[1].TraceID, spans[1].SpanID, spans[1].ParentID = 0x100000001, 0x300000001, 0x100000001
	tr := BuildChromeTrace(spans)
	flows := map[string]ChromeEvent{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "s", "t", "f":
			if ev.Name != "flow" || ev.Cat != "dcgn" {
				t.Errorf("flow event name/cat = %q/%q, want flow/dcgn", ev.Name, ev.Cat)
			}
			flows[ev.Ph] = ev
		}
	}
	start, ok := flows["s"]
	if !ok || start.ID != spans[0].SpanID || start.Ts != usOf(spans[0].WireSent) || start.Pid != 0 {
		t.Fatalf("flow start = %+v (present %v), want id %#x at ts %v on pid 0",
			start, ok, spans[0].SpanID, usOf(spans[0].WireSent))
	}
	step, ok := flows["t"]
	if !ok || step.ID != spans[1].ParentID || step.Ts != usOf(spans[1].Matched) || step.Pid != 1 {
		t.Fatalf("flow step = %+v (present %v), want id %#x at ts %v on pid 1",
			step, ok, spans[1].ParentID, usOf(spans[1].Matched))
	}
	finish, ok := flows["f"]
	if !ok || finish.ID != spans[0].SpanID || finish.BP != "e" || finish.Ts != usOf(spans[0].Acked) {
		t.Fatalf("flow finish = %+v (present %v), want id %#x bp e at ts %v",
			finish, ok, spans[0].SpanID, usOf(spans[0].Acked))
	}
	// The arrow ID space and slice schema must survive a JSON round trip.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var decoded ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("flowed trace is not valid trace-event JSON: %v", err)
	}
	var arrows int
	for _, ev := range decoded.TraceEvents {
		if ev.Ph == "s" || ev.Ph == "t" || ev.Ph == "f" {
			arrows++
			if ev.ID == 0 {
				t.Errorf("decoded flow event lost its ID: %+v", ev)
			}
		}
	}
	if arrows != 3 {
		t.Errorf("decoded %d flow events, want 3", arrows)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want header + 3", len(rows))
	}
	if rows[0][0] != "op" || rows[0][len(rows[0])-1] != "latency_ns" {
		t.Fatalf("unexpected header: %v", rows[0])
	}
	if rows[1][5] != "cpu" || rows[2][5] != "gpu" {
		t.Fatalf("src columns wrong: %v / %v", rows[1], rows[2])
	}
	if rows[3][6] != "true" {
		t.Fatalf("failed column wrong: %v", rows[3])
	}
	// latency of span 0: 31us - 10us = 21000ns.
	if rows[1][len(rows[1])-1] != "21000" {
		t.Fatalf("latency column = %q, want 21000", rows[1][len(rows[1])-1])
	}
}

func TestDebugHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("acks").Add(7)
	r.Gauge("depth").Set(3)
	for i := 0; i < 4; i++ {
		r.Histogram("wait").Observe(1000)
	}
	srv := httptest.NewServer(DebugHandler(r.Snapshot))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var st DebugState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Counters["acks"] != 7 || st.Gauges["depth"] != 3 {
		t.Fatalf("decoded state = %+v", st)
	}
	h := st.Histograms["wait"]
	if h.Count != 4 || h.P50 != 704 || h.Mean != 1000 { // p50: 1.5 ranks of 4 into [512, 1024)
		t.Fatalf("histogram summary = %+v", h)
	}
}

// TestWriteHistograms pins the text rendering of Report.Histograms: rows
// sorted by name under the six debug-document columns, "_ns" instruments
// as durations (also when the name carries label tags), everything else
// raw, and the quantiles interpolated, not quantized to bucket bounds.
func TestWriteHistograms(t *testing.T) {
	r := NewRegistry()
	for _, v := range []int64{1000, 1000, 3000, 3000} {
		r.Histogram("wait_ns/op=recv").Observe(v)
	}
	r.Histogram("depth").Observe(5)
	var buf bytes.Buffer
	if err := WriteHistograms(&buf, r.Snapshot().Histograms); err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		rows = append(rows, strings.Fields(line))
	}
	want := [][]string{
		{"histogram", "count", "mean", "p50", "p90", "p99"},
		{"depth", "1", "5", "4", "4", "4"},
		{"wait_ns/op=recv", "4", "2µs", "896ns", "2.764µs", "3.041µs"},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(rows), len(want), buf.String())
	}
	for i, w := range want {
		if len(rows[i]) != len(w) {
			t.Fatalf("row %d has %d columns, want %d: %v", i, len(rows[i]), len(w), rows[i])
		}
		for j, cell := range w {
			if rows[i][j] != cell {
				t.Errorf("row %d column %d = %q, want %q", i, j, rows[i][j], cell)
			}
		}
	}
	wait := r.Snapshot().Histograms["wait_ns/op=recv"]
	if got, want := rows[2][3], time.Duration(wait.QuantileF(0.50)).String(); got != want {
		t.Errorf("p50 = %q, want QuantileF's %q", got, want)
	}
}
