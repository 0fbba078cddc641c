package loadgen

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/obs/flow"
)

// The workload layer's own gate: report determinism on the simulated
// backend, exact trace record/replay, closed-loop chaining, open-loop
// shedding, and spec/distribution validation.

// simSpec is the short seeded run most tests drive.
func simSpec() Spec {
	return Spec{
		Backend:  "sim",
		Seed:     42,
		Rate:     400,
		Duration: 500 * time.Millisecond,
		Preset:   "mixed",
	}
}

// TestRunSimDeterministic: same seed, same spec — byte-identical SLO
// report. This is the property the CI smoke job diffs.
func TestRunSimDeterministic(t *testing.T) {
	var docs [][]byte
	for i := 0; i < 2; i++ {
		rep, err := Run(simSpec())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed == 0 {
			t.Fatal("no job completed")
		}
		if rep.Offered != rep.Completed+rep.Rejected+rep.Failed+rep.Canceled {
			t.Fatalf("outcome partition broken: %+v", rep)
		}
		if rep.WallS != 0 {
			t.Fatalf("sim report carries wall-clock time %v: determinism breaker", rep.WallS)
		}
		doc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("two runs with the same seed produced different SLO reports")
	}
}

// TestReportShape checks the schema tag and that per-tenant stats
// partition the aggregate.
func TestReportShape(t *testing.T) {
	rep, err := Run(simSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ReportSchema)
	}
	jobs := 0
	for _, ts := range rep.Tenants {
		jobs += ts.Jobs
	}
	if jobs != rep.Completed || rep.Aggregate.Jobs != rep.Completed {
		t.Fatalf("tenant jobs %d / aggregate %d, want %d", jobs, rep.Aggregate.Jobs, rep.Completed)
	}
	if rep.Aggregate.E2E.Count == 0 || rep.Aggregate.E2E.P99Ns <= 0 {
		t.Fatalf("aggregate e2e stats empty: %+v", rep.Aggregate.E2E)
	}
	if rep.Aggregate.MatchWait.Count == 0 {
		t.Fatal("aggregate match-wait stats empty")
	}
	// Interpolated percentiles are ordered.
	e := rep.Aggregate.E2E
	if !(e.P50Ns <= e.P95Ns && e.P95Ns <= e.P99Ns && e.P99Ns <= e.P999Ns) {
		t.Fatalf("percentiles out of order: %+v", e)
	}
}

// TestTraceRecordReplay: a recorded trace replayed through RunTrace must
// reproduce the direct run's report byte for byte, surviving a disk
// round-trip.
func TestTraceRecordReplay(t *testing.T) {
	spec := Spec{Backend: "sim", Seed: 7, Rate: 150, Duration: 400 * time.Millisecond, Preset: "chat"}
	direct, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	directDoc, _ := direct.JSON()

	tr, err := RecordTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schema != TraceSchema {
		t.Fatalf("trace schema %q, want %q", tr.Schema, TraceSchema)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := RunTrace(loaded, "")
	if err != nil {
		t.Fatal(err)
	}
	replayedDoc, _ := replayed.JSON()
	if !bytes.Equal(directDoc, replayedDoc) {
		t.Fatal("replayed trace produced a different report than the direct run")
	}
}

// TestLoadTraceRejectsBadSchema: a trace with a foreign schema tag is
// refused instead of half-parsed.
func TestLoadTraceRejectsBadSchema(t *testing.T) {
	tr, err := RecordTrace(Spec{Backend: "sim", Seed: 1, Rate: 50, Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(doc, []byte(TraceSchema), []byte("other/v9"), 1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("LoadTrace accepted a foreign schema: err=%v", err)
	}
}

// TestClosedLoopSim: Concurrency chains keep the cluster busy for the
// whole window — far more completions than the primed batch — and the
// outcome partition holds.
func TestClosedLoopSim(t *testing.T) {
	rep, err := Run(Spec{
		Backend:     "sim",
		Seed:        3,
		Arrival:     ArrivalClosed,
		Concurrency: 4,
		Duration:    200 * time.Millisecond,
		Preset:      "chat",
		Nodes:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed <= 4 {
		t.Fatalf("closed loop completed only %d jobs: chains did not chain", rep.Completed)
	}
	if rep.Offered != rep.Completed+rep.Rejected+rep.Failed+rep.Canceled {
		t.Fatalf("outcome partition broken: %+v", rep)
	}
}

// TestOpenLoopOverloadSheds: a 2-node cluster offered chat jobs at 20×
// its capacity with a 4-deep queue must shed most arrivals as rejected
// while still completing the admitted ones.
func TestOpenLoopOverloadSheds(t *testing.T) {
	rep, err := Run(Spec{
		Backend:  "sim",
		Seed:     11,
		Rate:     5000,
		Duration: 100 * time.Millisecond,
		Preset:   "chat",
		Nodes:    2,
		MaxQueue: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("overload shed nothing")
	}
	if rep.Completed == 0 {
		t.Fatal("overload completed nothing")
	}
	if rep.Failed != 0 || rep.Canceled != 0 {
		t.Fatalf("unexpected failures under clean overload: %+v", rep)
	}
	if rep.Offered != rep.Completed+rep.Rejected {
		t.Fatalf("outcome partition broken: %+v", rep)
	}
}

// TestArrivalProcessesShapeAndRate: each open-loop process produces a
// time-ordered trace within the window, with a long-run rate near the
// configured mean.
func TestArrivalProcessesShapeAndRate(t *testing.T) {
	for _, proc := range []string{ArrivalPoisson, ArrivalBursty, ArrivalDiurnal} {
		spec := Spec{Backend: "sim", Seed: 5, Rate: 1000, Duration: 4 * time.Second, Arrival: proc}
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		arr := GenArrivals(spec)
		want := spec.Rate * spec.Duration.Seconds()
		// The MMPP has only ~9 state cycles per run (dwells scale with the
		// horizon), so its per-run count is inherently noisy; the other
		// processes concentrate tightly around the mean.
		tol := 0.3
		if proc == ArrivalBursty {
			tol = 0.5
		}
		if f := float64(len(arr)); f < (1-tol)*want || f > (1+tol)*want {
			t.Errorf("%s: %d arrivals, want ~%.0f", proc, len(arr), want)
		}
		horizon := spec.Duration.Nanoseconds()
		last := int64(-1)
		for i, a := range arr {
			if a.AtNs < last || a.AtNs >= horizon {
				t.Fatalf("%s: arrival %d at %d out of order or window", proc, i, a.AtNs)
			}
			last = a.AtNs
			if a.Nodes < 2 || a.Fanout < 1 || a.Size < 1 || a.Iters < 1 || a.ServiceNs < 0 {
				t.Fatalf("%s: degenerate arrival %+v", proc, a)
			}
		}
	}
	// Closed loop has no precomputable trace.
	spec := Spec{Backend: "sim", Arrival: ArrivalClosed}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	if arr := GenArrivals(spec); arr != nil {
		t.Fatalf("closed loop generated %d arrivals, want none", len(arr))
	}
}

// TestSpecValidation pins the rejection of malformed specs.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"bad backend", Spec{Backend: "quantum"}},
		{"bad arrival", Spec{Arrival: "fractal"}},
		{"bad preset", Spec{Preset: "video"}},
		{"class too wide", Spec{Nodes: 2, Classes: []Class{{
			Name: "wide", Weight: 1, Nodes: 4,
			Fanout: Const(1), Size: Const(64), Iters: Const(1), Service: Const(1000),
		}}}},
		{"nameless class", Spec{Classes: []Class{{
			Weight: 1, Nodes: 2,
			Fanout: Const(1), Size: Const(64), Iters: Const(1), Service: Const(1000),
		}}}},
	}
	for _, tc := range cases {
		s := tc.spec
		if err := s.normalize(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestDistSample checks the three distribution kinds honor their
// parameters.
func TestDistSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if v := Const(5).Sample(rng); v != 5 {
			t.Fatalf("Const(5) sampled %v", v)
		}
		if v := Uniform(2, 6).Sample(rng); v < 2 || v > 6 {
			t.Fatalf("Uniform(2,6) sampled %v", v)
		}
		if v := LogNormal(512, 0.8).Sample(rng); v <= 0 {
			t.Fatalf("LogNormal sampled %v", v)
		}
		if v := sampleInt(Const(-3), rng, 1); v != 1 {
			t.Fatalf("sampleInt floor: got %d, want 1", v)
		}
	}
}

// TestFindMaxRateValidation: the knee search refuses shapes it cannot
// bracket.
func TestFindMaxRateValidation(t *testing.T) {
	if _, err := FindMaxRate(Spec{Backend: "sim", Arrival: ArrivalClosed}, time.Millisecond); err == nil {
		t.Error("closed-loop knee search accepted")
	}
	if _, err := FindMaxRate(Spec{Backend: "sim"}, 0); err == nil {
		t.Error("zero SLO accepted")
	}
}

// TestFlowsPhaseAttribution is the ISSUE acceptance gate for the
// loadgen integration: on the chat preset with Spec.Flows, per-phase
// mean attribution sums to the mean end-to-end latency within 1% for
// the aggregate and every tenant (the construction makes it exact),
// every canonical phase column is present, and the report stays
// byte-deterministic per seed.
func TestFlowsPhaseAttribution(t *testing.T) {
	spec := Spec{
		Backend:  "sim",
		Seed:     42,
		Rate:     400,
		Duration: 500 * time.Millisecond,
		Preset:   "chat",
		Flows:    true,
	}
	var docs [][]byte
	var rep *Report
	for i := 0; i < 2; i++ {
		r, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
		rep = r
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("flows-on SLO reports are not byte-deterministic per seed")
	}
	if rep.Completed == 0 {
		t.Fatal("no job completed")
	}
	check := func(label string, ts TenantStats) {
		t.Helper()
		if len(ts.Phases) != len(flow.Phases) {
			t.Fatalf("%s: %d phase columns, want %d: %v", label, len(ts.Phases), len(flow.Phases), ts.Phases)
		}
		var sum float64
		for _, p := range flow.Phases {
			ps, ok := ts.Phases[p]
			if !ok {
				t.Fatalf("%s: phase %q missing", label, p)
			}
			if ps.Count != uint64(ts.Jobs) {
				t.Fatalf("%s: phase %q observed %d times for %d jobs", label, p, ps.Count, ts.Jobs)
			}
			sum += ps.MeanNs
		}
		e2e := ts.E2E.MeanNs
		if e2e <= 0 {
			t.Fatalf("%s: empty e2e stats", label)
		}
		if diff := sum - e2e; diff > 0.01*e2e || diff < -0.01*e2e {
			t.Fatalf("%s: phase means sum to %.0fns, e2e mean %.0fns (off %.2f%%)",
				label, sum, e2e, 100*(sum-e2e)/e2e)
		}
	}
	check("aggregate", rep.Aggregate)
	for tenant, ts := range rep.Tenants {
		check("tenant "+tenant, ts)
	}
}

// TestFlowsOffOmitsPhases pins the opt-in contract at the report level:
// without Spec.Flows no phase column appears (omitempty keeps the JSON
// identical to the pre-flows schema).
func TestFlowsOffOmitsPhases(t *testing.T) {
	rep, err := Run(simSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.Phases != nil {
		t.Fatalf("flows off, but aggregate grew phase columns: %v", rep.Aggregate.Phases)
	}
	for tenant, ts := range rep.Tenants {
		if ts.Phases != nil {
			t.Fatalf("flows off, but tenant %s grew phase columns", tenant)
		}
	}
	doc, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(doc, []byte(`"phases"`)) {
		t.Fatal("flows off, but the report JSON carries a phases key")
	}
}

// BenchmarkLoadgenArrivals times the loadgen hot path: sampling one
// second of mixed-preset open-loop traffic.
func BenchmarkLoadgenArrivals(b *testing.B) {
	spec := Spec{Backend: "sim", Seed: 1, Rate: 1000, Duration: time.Second, Preset: "mixed"}
	if err := spec.normalize(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if arr := GenArrivals(spec); len(arr) == 0 {
			b.Fatal("no arrivals")
		}
	}
}

// TestSimRetirementsLeaveNoMatchState is ROADMAP item 7's retirement
// invariant on a seeded chat run: after every retirement, what waits on
// the substrate's MPI matching queues — posted receives and unexpected
// messages — is bounded by the nodes of the jobs still live (the running
// ones and the one retiring, whose receivers go with its proc group at the
// next event boundary), and nothing waits once the runtime is idle.
func TestSimRetirementsLeaveNoMatchState(t *testing.T) {
	spec := Spec{Backend: "sim", Seed: 3, Rate: 400, Duration: 200 * time.Millisecond, Preset: "chat"}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	rt, err := newRuntime(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	retired, worst := 0, 0.0
	rt.SetOnJobDone(func(done core.JobStatus) {
		retired++
		nodes := done.Nodes
		for _, st := range rt.List() {
			if st.State == core.JobRunning {
				nodes += st.Nodes
			}
		}
		posted, unexp := rt.MatchQueues()
		worst = max(worst, float64(posted+unexp)/float64(nodes))
		if bound := matchQueuesPerNode * nodes; posted+unexp > bound {
			t.Errorf("retirement %d: %d receives posted and %d messages unexpected with %d nodes' jobs live: bound %d", retired, posted, unexp, nodes, bound)
		}
	})
	for _, a := range GenArrivals(spec) {
		if _, err := rt.SubmitAt(BuildJob(spec.Backend, a, false), submitOpts(a), a.At()); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if retired < 50 {
		t.Fatalf("only %d jobs retired", retired)
	}
	if posted, unexp := rt.MatchQueues(); posted+unexp != 0 {
		t.Errorf("idle runtime: %d receives posted and %d messages unexpected", posted, unexp)
	}
	t.Logf("%d retirements, at most %.2f queued per live node", retired, worst)
}

// matchQueuesPerNode bounds what one node of a live job keeps on the
// matching queues: a posted receive per lane (two-sided, one-sided).
const matchQueuesPerNode = 2
