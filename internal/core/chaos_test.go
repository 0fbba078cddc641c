package core_test

// Chaos differential suite: the seeded workload in internal/chaos must
// produce identical per-rank digests whatever the wire does — clean sim,
// faulted sim, clean live, faulted live. A divergence means the
// reliability layer let a drop, duplicate or reordering reach the
// application; the shrinker then reruns with shorter round prefixes to
// name the smallest failing script.

import (
	"os"
	"reflect"
	"testing"
	"time"

	"dcgn/internal/chaos"
	"dcgn/internal/core"
	"dcgn/internal/obs"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// chaosShape is the suite's cluster shape: 3 nodes x 2 CPU kernels.
func chaosOpts(backend string, rounds int, seed int64, f faults.Config) chaos.Options {
	return chaos.Options{
		Backend:    backend,
		Nodes:      3,
		CPUs:       2,
		Rounds:     rounds,
		Seed:       seed,
		Faults:     f,
		AckTimeout: 5 * time.Millisecond, // irrelevant on sim, keeps live fast
	}
}

// shrink reruns a failing (seed, faults) combination with growing round
// prefixes and reports the smallest prefix that still diverges from the
// clean digests — the chaos harness's shrinking step. The smallest
// failing prefix is rerun once more with lifecycle spans on and dumped as
// a Chrome trace-event file, so the post-mortem starts in Perfetto
// instead of printf.
func shrink(t *testing.T, backend string, maxRounds int, seed int64, f faults.Config) {
	t.Helper()
	for r := 1; r <= maxRounds; r++ {
		clean, err := chaos.Run(chaosOpts(transport.BackendSim, r, seed, faults.Config{}))
		if err != nil {
			t.Logf("shrink: clean run failed at %d rounds: %v", r, err)
			return
		}
		got, err := chaos.Run(chaosOpts(backend, r, seed, f))
		if err != nil || !equalDigests(got.Digests, clean.Digests) {
			t.Logf("smallest failing script: seed=%d rounds=%d backend=%s (err=%v)", seed, r, backend, err)
			dumpChaosTrace(t, backend, r, seed, f)
			return
		}
	}
}

// dumpChaosTrace reruns a failing prefix with span recording enabled and
// writes its Perfetto trace next to the test binary's temp space. The
// rerun is best-effort: on the deterministic sim backend it replays the
// identical failure; on live it is a fresh sample of the same script.
func dumpChaosTrace(t *testing.T, backend string, rounds int, seed int64, f faults.Config) {
	t.Helper()
	opts := chaosOpts(backend, rounds, seed, f)
	opts.Trace = true
	got, _ := chaos.Run(opts) // the error (if any) is the failure under study
	if len(got.Report.Trace) == 0 {
		return
	}
	out, err := os.CreateTemp("", "dcgn-chaos-*.trace.json")
	if err != nil {
		t.Logf("chaos trace dump: %v", err)
		return
	}
	defer out.Close()
	if err := obs.WriteChromeTrace(out, got.Report.Trace); err != nil {
		t.Logf("chaos trace dump: %v", err)
		return
	}
	t.Logf("Perfetto trace of failing prefix (%d spans): load %s at ui.perfetto.dev",
		len(got.Report.Trace), out.Name())
}

func equalDigests(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireDifferential runs clean-sim as the reference and asserts that a
// (backend, faults) run matches it digest-for-digest with a balanced
// pool, shrinking on failure.
func requireDifferential(t *testing.T, backend string, rounds int, seed int64, f faults.Config) chaos.Result {
	t.Helper()
	clean, err := chaos.Run(chaosOpts(transport.BackendSim, rounds, seed, faults.Config{}))
	if err != nil {
		t.Fatalf("clean reference run: %v", err)
	}
	got, err := chaos.Run(chaosOpts(backend, rounds, seed, f))
	if err != nil {
		shrink(t, backend, rounds, seed, f)
		t.Fatalf("chaos run (backend=%s): %v", backend, err)
	}
	if !equalDigests(got.Digests, clean.Digests) {
		shrink(t, backend, rounds, seed, f)
		t.Fatalf("digests diverged from clean run:\nclean: %x\ngot:   %x", clean.Digests, got.Digests)
	}
	if got.Report.PoolAcquires != got.Report.PoolReleases {
		t.Fatalf("pool leak under chaos: %d acquires vs %d releases",
			got.Report.PoolAcquires, got.Report.PoolReleases)
	}
	return got
}

// requireShardInvariant reruns a faulted simulated run on two and on four
// shards: the fault streams are seeded per endpoint, so the digests and
// every number the faults shaped must equal the one-shard run's.
func requireShardInvariant(t *testing.T, rounds int, seed int64, f faults.Config, one chaos.Result) {
	t.Helper()
	for _, shards := range []int{2, 4} {
		opts := chaosOpts(transport.BackendSim, rounds, seed, f)
		opts.Shards = shards
		got, err := chaos.Run(opts)
		if err != nil {
			t.Fatalf("seed %d shards %d: %v", seed, shards, err)
		}
		a, b := got.Report, one.Report
		if !equalDigests(got.Digests, one.Digests) || a.Elapsed != b.Elapsed || a.Retransmits != b.Retransmits ||
			a.DupWireFrames != b.DupWireFrames || a.CollRetries != b.CollRetries || a.FaultsInjected != b.FaultsInjected {
			t.Errorf("seed %d shards %d diverged from one shard:\n got %x elapsed %v retransmits %d dups %d coll-retries %d faults %+v\nwant %x elapsed %v retransmits %d dups %d coll-retries %d faults %+v",
				seed, shards, got.Digests, a.Elapsed, a.Retransmits, a.DupWireFrames, a.CollRetries, a.FaultsInjected,
				one.Digests, b.Elapsed, b.Retransmits, b.DupWireFrames, b.CollRetries, b.FaultsInjected)
		}
	}
}

// requireHostInvariant reruns a faulted simulated run as a tenant of a
// Runtime, beside a clean bystander running another seed's script: the
// digests and the whole Report must equal the ones Job.Run gave it, and so
// must the bystander's.
func requireHostInvariant(t *testing.T, rounds int, seed int64, f faults.Config, solo chaos.Result) {
	t.Helper()
	r, err := core.NewRuntime(core.RuntimeConfig{Nodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	clean := chaosOpts(transport.BackendSim, rounds, seed+1, faults.Config{})
	var ws [2]*chaos.Workload
	var hs [2]*core.JobHandle
	for i, o := range []chaos.Options{chaosOpts(transport.BackendSim, rounds, seed, f), clean} {
		if ws[i], err = chaos.New(o); err != nil {
			t.Fatal(err)
		}
		if hs[i], err = r.Submit(ws[i].Job, core.SubmitOpts{}); err != nil {
			t.Fatalf("seed %d: Submit: %v", seed, err)
		}
	}
	if err := r.Run(); err != nil {
		t.Fatalf("seed %d: batch: %v", seed, err)
	}
	bystander, err := chaos.Run(clean)
	if err != nil {
		t.Fatalf("clean reference run: %v", err)
	}
	for i, want := range []chaos.Result{solo, bystander} {
		got, err := ws[i].Result(hs[i].Wait())
		if err != nil {
			t.Fatalf("seed %d, tenant %d: %v", seed, i, err)
		}
		if !equalDigests(got.Digests, want.Digests) || !reflect.DeepEqual(got.Report, want.Report) {
			t.Errorf("seed %d, tenant %d diverged from its Job.Run:\n got %x %+v\nwant %x %+v", seed, i, got.Digests, got.Report, want.Digests, want.Report)
		}
	}
}

// TestChaosDifferentialSim sweeps seeds on the simulated backend with a
// drop rate past the acceptance bar (>= 10%), plus duplication and
// reordering; every seed must reproduce the clean digests and show the
// retransmit machinery actually firing, identically on every shard count
// and — three of the seeds — as a tenant of a Runtime.
func TestChaosDifferentialSim(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1009} {
		f := faults.Config{Seed: seed, Drop: 0.12, Dup: 0.08, Reorder: 0.08}
		got := requireDifferential(t, transport.BackendSim, 24, seed, f)
		requireShardInvariant(t, 24, seed, f, got)
		if seed != 1009 {
			requireHostInvariant(t, 24, seed, f, got)
		}
		if got.Report.FaultsInjected.Drops == 0 {
			t.Errorf("seed %d: no drops injected; differential proves nothing", seed)
		}
		if got.Report.Retransmits == 0 {
			t.Errorf("seed %d: drops but zero retransmits", seed)
		}
	}
}

// TestChaosDifferentialSimCollFaults adds transient collective failures
// on top of the wire faults.
func TestChaosDifferentialSimCollFaults(t *testing.T) {
	f := faults.Config{Seed: 11, Drop: 0.1, CollFail: 0.2}
	got := requireDifferential(t, transport.BackendSim, 24, 11, f)
	if got.Report.FaultsInjected.CollFails == 0 {
		t.Error("no collective faults injected; test proves nothing")
	}
	requireShardInvariant(t, 24, 11, f, got)
}

// TestChaosDifferentialLive runs the same differential on the live
// backend — real goroutines, wall-clock retransmit timers — against the
// clean-sim reference digests. CI runs this package under -race.
func TestChaosDifferentialLive(t *testing.T) {
	requireDifferential(t, transport.BackendLive, 16, 5, faults.Config{})
	got := requireDifferential(t, transport.BackendLive, 16, 5,
		faults.Config{Seed: 5, Drop: 0.12, Dup: 0.05})
	if got.Report.Retransmits == 0 && got.Report.FaultsInjected.Drops > 0 {
		t.Error("live drops but zero retransmits")
	}
	// The full fault mix with transient collective failures on top: the
	// collective retry loop on wall-clock timers, which the sim suites
	// above cannot race.
	got = requireDifferential(t, transport.BackendLive, 24, 11,
		faults.Config{Seed: 11, Drop: 0.12, Dup: 0.08, Reorder: 0.08, CollFail: 0.2})
	if got.Report.FaultsInjected.CollFails == 0 || got.Report.CollRetries == 0 {
		t.Errorf("live collective faults: %d injected, %d retries; the row proves nothing",
			got.Report.FaultsInjected.CollFails, got.Report.CollRetries)
	}
}

// TestChaosDifferentialFlows reruns the faulted differential with
// causal flow tracing on: the 16-byte trace context in every wire frame
// must not corrupt application payloads under drops, duplicates and
// reordering, and the flows-on faulted digests must match both the
// clean flows-on and the plain clean reference.
func TestChaosDifferentialFlows(t *testing.T) {
	opts := chaosOpts(transport.BackendSim, 24, 42, faults.Config{})
	opts.Flows = true
	cleanFlows, err := chaos.Run(opts)
	if err != nil {
		t.Fatalf("clean flows-on run: %v", err)
	}
	clean, err := chaos.Run(chaosOpts(transport.BackendSim, 24, 42, faults.Config{}))
	if err != nil {
		t.Fatalf("clean reference run: %v", err)
	}
	if !equalDigests(cleanFlows.Digests, clean.Digests) {
		t.Fatalf("flow tracing alone changed application payloads:\nplain: %x\nflows: %x",
			clean.Digests, cleanFlows.Digests)
	}
	faulted := chaosOpts(transport.BackendSim, 24, 42,
		faults.Config{Seed: 42, Drop: 0.12, Dup: 0.08, Reorder: 0.08})
	faulted.Flows = true
	got, err := chaos.Run(faulted)
	if err != nil {
		t.Fatalf("faulted flows-on run: %v", err)
	}
	if !equalDigests(got.Digests, clean.Digests) {
		t.Fatalf("digests diverged with flows on under faults:\nclean: %x\ngot:   %x",
			clean.Digests, got.Digests)
	}
	if got.Report.Retransmits == 0 {
		t.Error("no retransmits fired; the flows-under-faults differential proves nothing")
	}
	if got.Report.PoolAcquires != got.Report.PoolReleases {
		t.Fatalf("pool leak with flows on under chaos: %d acquires vs %d releases",
			got.Report.PoolAcquires, got.Report.PoolReleases)
	}
}

// TestChaosCleanRunDeterminism pins that the harness itself is a pure
// function of its options on the simulated backend: identical digests
// AND identical virtual time across repeated runs.
func TestChaosCleanRunDeterminism(t *testing.T) {
	a, err := chaos.Run(chaosOpts(transport.BackendSim, 20, 99, faults.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.Run(chaosOpts(transport.BackendSim, 20, 99, faults.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if !equalDigests(a.Digests, b.Digests) || a.Report.Elapsed != b.Report.Elapsed {
		t.Fatalf("clean chaos runs diverged: %v vs %v", a.Report.Elapsed, b.Report.Elapsed)
	}
}
