package apps

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/fabric"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// runScale runs ScaleFanout on nodes nodes with the given shard count and
// returns the digest vector plus the virtual elapsed time.
func runScale(t *testing.T, nodes, shards, rounds, fanout int, topo fabric.Topology) ([]uint64, time.Duration) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Shards = shards
	cfg.Net.Topology = topo
	cfg.MPI.TreeCollectives = true
	rep, digests, err := ScaleFanout(cfg, rounds, fanout)
	if err != nil {
		t.Fatalf("nodes=%d shards=%d: %v", nodes, shards, err)
	}
	return digests, rep.Elapsed
}

// TestScaleFanoutShardInvariance is the determinism tentpole check: the
// digest vector and the virtual elapsed time must be bit-identical for
// every shard count, Shards 0 included — on the flat fabric and on
// topologies, where the lookahead derives from the cross-shard latency
// instead of the flat link latency. The 256-node
// cells also pin the FNV fold of the digests and the elapsed time, so a
// change that moves every shard count together still fails here rather
// than in a human's diff against the parent commit.
func TestScaleFanoutShardInvariance(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		nodes, rounds, fanout int
		topo                  fabric.Topology
		shards                []int
		fold                  uint64
		elapsed               time.Duration
	}{
		{name: "flat64", nodes: 64, rounds: 3, fanout: 3, shards: []int{0, 1, 2, 4, 8}},
		{name: "fattree16", nodes: 16, rounds: 3, fanout: 3, shards: []int{0, 1, 2, 4},
			topo: fabric.NewFatTree(4, 100*time.Nanosecond)},
		{name: "flat256", nodes: 256, rounds: 4, fanout: 4, shards: []int{0, 1, 2, 8},
			fold: 0xdf60891d956fb425, elapsed: 1385240 * time.Nanosecond},
		// The smallest balanced dragonfly (a = h, p = a/2) with 256 hosts.
		{name: "dragonfly256", nodes: 256, rounds: 4, fanout: 4, shards: []int{0, 1, 2, 8},
			topo: fabric.NewDragonfly(6, 3, 6, 300*time.Nanosecond),
			fold: 0xdf60891d956fb425, elapsed: 1383840 * time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantElapsed := runScale(t, tc.nodes, tc.shards[0], tc.rounds, tc.fanout, tc.topo)
			for _, shards := range tc.shards[1:] {
				got, gotElapsed := runScale(t, tc.nodes, shards, tc.rounds, tc.fanout, tc.topo)
				if gotElapsed != wantElapsed {
					t.Errorf("shards=%d: elapsed %v, want %v", shards, gotElapsed, wantElapsed)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d: rank %d digest %#x, want %#x", shards, i, got[i], want[i])
					}
				}
			}
			if tc.fold == 0 {
				return
			}
			fold := uint64(14695981039346656037)
			for _, d := range want {
				fold = (fold ^ d) * 1099511628211
			}
			if fold != tc.fold || wantElapsed != tc.elapsed {
				t.Errorf("digest fold %016x elapsed %v, pinned %016x %v", fold, wantElapsed, tc.fold, tc.elapsed)
			}
		})
	}
}

// BenchmarkScaleFanout is the engine under the repository benchmark's
// scale_sharded workload: ScaleFanout on 1 024 CPU-only nodes of a k=16
// fat-tree, four shards, tree collectives, four rounds at fan-out four.
// Besides ns/op it reports the messages a run moves and the heap
// allocations per message; `make allocprof` profiles it by allocation
// site.
func BenchmarkScaleFanout(b *testing.B) {
	const nodes, rounds, fanout = 1024, 4, 4
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.Shards, cfg.MPI.TreeCollectives = nodes, 4, true
	cfg.Net.Topology = fabric.NewFatTree(16, 300*time.Nanosecond)
	msgs := float64(nodes * rounds * 2 * fanout)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if _, _, err := ScaleFanout(cfg, rounds, fanout); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(msgs, "msgs/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/msgs, "allocs/msg")
}

// TestScaleFanoutDigestsNontrivial guards against the digest pipeline
// degenerating (all-zero or all-equal vectors would make the CI diff
// vacuous).
func TestScaleFanoutDigestsNontrivial(t *testing.T) {
	digests, _ := runScale(t, 8, 2, 3, 3, nil)
	seen := map[uint64]bool{}
	for _, d := range digests {
		if d == 0 {
			t.Fatal("zero digest")
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all %d digests identical: %#x", len(digests), digests[0])
	}
}

// simsOf makes cfg's transports record the simulators their sends run on,
// so that a test can read the engine's self-counters (sim.Stats) after the
// run: the simulated transport's Proc is the calling *sim.Proc. The spy
// only embeds the transport and overrides its send, so it forwards every
// form, and the engine runs on the hosts it runs on unwrapped — which
// TestEngineResumeBudget's zero-resume list checks.
func simsOf(cfg *core.Config) func() sim.Stats {
	var mu sync.Mutex // shards send from threads of their own
	sims := map[*sim.Sim]bool{}
	cfg.WrapTransport = func(tr transport.Transport) transport.Transport {
		return simSeer{tr, func(s *sim.Sim) { mu.Lock(); sims[s] = true; mu.Unlock() }}
	}
	return func() sim.Stats {
		var st sim.Stats
		for s := range sims {
			st.Add(s.Stats())
		}
		return st
	}
}

type simSeer struct {
	transport.Transport
	saw func(*sim.Sim)
}

func (t simSeer) SendStep(p transport.Proc, op *transport.SendOp) (bool, error) {
	t.saw(p.(*sim.Proc).Sim())
	return t.Transport.SendStep(p, op)
}

// TestEngineResumeBudget is the engine's switch tripwire: the proc resumes
// (coroutine switches) a small fixed ScaleFanout costs per message must stay
// inside their budget, and every engine and device-model daemon and helper
// — wire and shared-memory delivery, eager injection, rendezvous data, the
// progress daemon, the comm thread, the GPU monitor, doorbell and NIC
// daemons, the write-back and completion helpers, the device dispatcher,
// dcgn-tx and both lanes' receivers — runs as stackless steps, never
// resumed. What still has a stack is user code: one CPU kernel per node,
// so the run starts exactly that many coroutine workers, and its resumes
// are the kernels'. A 1 MB GPU-to-GPU message adds the rendezvous, GPU
// and dispatch helpers that the 8-byte exchange never spawns, a doorbell
// GPU the signal daemons, a triggered put the NIC daemon and the one-sided
// receiver, and a reliable exchange the ack helpers and the retransmit
// timers. Resume counts are deterministic, so the budget is the measured
// figure, rounded up. It is also the recycling tripwire: the per-message
// control objects — stackless procs, packets, envelopes, inbound
// messages, dcgn-tx helpers, and a blocking call's sendrecv join, matching
// entries and rendezvous send — come mostly from free lists, and each run
// gives back every object it was handed (sim.Recycled).
func TestEngineResumeBudget(t *testing.T) {
	const nodes, rounds, fanout, budget = 64, 3, 3, 3.2
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.Shards, cfg.MPI.TreeCollectives = nodes, 2, true
	stats := simsOf(&cfg)
	if _, _, err := ScaleFanout(cfg, rounds, fanout); err != nil {
		t.Fatal(err)
	}
	st := stats()
	msgs := float64(nodes * rounds * 2 * fanout)
	t.Logf("%.2f resumes, %.2f steps, %.2f spawns per message; %d workers; at most %d timers pending; recycled %+v",
		float64(st.Resumes)/msgs, float64(st.Steps)/msgs, float64(st.Spawns)/msgs, st.Workers, st.PeakTimers, st.Recycled)
	if per := float64(st.Resumes) / msgs; per > budget {
		t.Errorf("%.2f resumes per message, budget %.1f", per, budget)
	}
	if k := st.Kinds["cpu-kern"]; k.Resumes != st.Resumes {
		t.Errorf("%d of %d resumes are CPU kernels': something else has a stack", k.Resumes, st.Resumes)
	}
	if st.Workers != nodes {
		t.Errorf("%d coroutine workers started, want %d: a CPU kernel per node", st.Workers, nodes)
	}
	// Every per-message control object comes from its owner's free list
	// and goes back to one, so at most a third of them are ever allocated
	// (a node's first few, before any came back).
	recycled := []string{"proc", "packet", "envelope", "inbound", "remote-send"}
	for _, kind := range recycled {
		if r := st.Recycled[kind]; r.Gets == 0 || 3*r.Fresh > r.Gets {
			t.Errorf("%s: %d handed out, %d of them allocated: not recycled", kind, r.Gets, r.Fresh)
		}
	}
	gpu := core.DefaultConfig()
	gpuStats := simsOf(&gpu)
	if _, _, err := DCGNSendOneWayReport(gpu, EPGPU, EPGPU, 1<<20); err != nil {
		t.Fatal(err)
	}
	st.Add(gpuStats())
	sig := core.DefaultConfig()
	sig.FutureHW.DeviceSignal = true
	sigStats := simsOf(&sig)
	if _, _, err := DCGNSendOneWayReport(sig, EPGPU, EPGPU, 64); err != nil {
		t.Fatal(err)
	}
	st.Add(sigStats())
	trig := core.DefaultConfig()
	trigStats := simsOf(&trig)
	if _, _, err := DCGNTriggeredOneWay(trig, 4096); err != nil {
		t.Fatal(err)
	}
	st.Add(trigStats())
	rel := core.DefaultConfig()
	rel.Nodes, rel.Reliability.Enabled = 8, true
	relStats := simsOf(&rel)
	if _, _, err := ScaleFanout(rel, 1, 2); err != nil {
		t.Fatal(err)
	}
	st.Add(relStats())
	for _, kind := range []string{"wire", "shm-deliver", "mpi-eager", "mpi-rndv-data", "mpi-engine", "gpu-done", "dcgn-tx", "mpi-recv", "rel-ack", "timer",
		"comm", "gpu-mon", "gpu-sig", "gpu-sig-wb", "gpu-nic", "os-recv", "dispatch"} {
		if k := st.Kinds[kind]; k.Resumes != 0 {
			t.Errorf("%s: %d resumes, want none: it runs as stackless steps", kind, k.Resumes)
		}
	}
	for _, kind := range []string{"wire", "mpi-eager", "mpi-rndv-data", "mpi-engine", "gpu-done", "dcgn-tx", "mpi-recv", "rel-ack", "timer",
		"comm", "gpu-mon", "gpu-sig", "gpu-sig-wb", "gpu-nic", "os-recv", "dispatch"} {
		if st.Kinds[kind].Steps == 0 {
			t.Errorf("%s: no steps taken; the workload no longer exercises it", kind)
		}
	}
	// A blocking call's control objects — the sendrecv join, the matching
	// index's entries, the rendezvous send — come from their owners' lists
	// too, as does an AsyncOp, given back at its Wait: an exchange twice as
	// long hands out more of each and allocates not one more, as many as
	// were ever in flight at once.
	short, long := exchangeStats(t, 4), exchangeStats(t, 8)
	st.Add(long)
	for _, kind := range []string{"sendrecv-join", "match-entry", "send-req", "async-op"} {
		s, l := short.Recycled[kind], long.Recycled[kind]
		t.Logf("%s: 4 rounds %+v, 8 rounds %+v", kind, s, l)
		if s.Gets == 0 || l.Gets <= s.Gets || l.Fresh != s.Fresh {
			t.Errorf("%s: %d handed out, %d allocated over 4 rounds, %d and %d over 8: not bounded by what is in flight", kind, s.Gets, s.Fresh, l.Gets, l.Fresh)
		}
	}
	recycled = append(recycled, "sendrecv-join", "match-entry", "send-req", "async-op")
	// Conservation: once a run is over, each object handed out has been
	// given back — to a list, or to the garbage collector when something
	// may still point at it — in all the runs, the 1 MB rendezvous and
	// the reliable exchange included; for procs that is every proc done.
	for _, kind := range recycled {
		if r := st.Recycled[kind]; r.Held() != 0 {
			t.Errorf("%s: %d handed out, %d given back: %d still held after the runs", kind, r.Gets, r.Puts, r.Held())
		}
	}
}

// exchangeStats runs rounds of a ring-shift exchange on four nodes of two
// CPU ranks, and returns the simulators' counters: each rank sends to the
// rank d up and receives from the rank d down, alternately 64 B and 64 KiB
// (an eager and a rendezvous send), with d cycling through 1, 2 and 5,
// then the same the other way round with an IRecv and an ISend, waited
// for: some exchanges stay on a node, where one side's half parks in the
// matching index until the other's arrives, and the rest cross the wire,
// where a frame that arrives first parks as unexpected.
func exchangeStats(t *testing.T, rounds int) sim.Stats {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.GPUs, cfg.SlotsPerGPU = 0, 0
	stats := simsOf(&cfg)
	job := core.NewJob(cfg)
	job.SetCPUKernel(func(c *core.CPUCtx) {
		n, me := c.Size(), c.Rank()
		for r := 0; r < rounds; r++ {
			d := []int{1, 2, 5}[r%3]
			size := 64 << (10 * (r % 2))
			up, down := (me+d)%n, (me-d+n)%n
			if _, err := c.SendRecv(up, make([]byte, size), down, make([]byte, size)); err != nil {
				t.Error(err)
			}
			recv := c.IRecv(up, make([]byte, size))
			send := c.ISend(down, make([]byte, size))
			for _, op := range []*core.AsyncOp{recv, send} {
				if _, err := op.Wait(c); err != nil {
					t.Error(err)
				}
			}
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	return stats()
}
