package dcgn_test

// Benchmark harness: ablations over the design choices DESIGN.md calls out,
// and the engine's wire lanes. The paper's own tables and figures (§5) are
// regenerated once, by `go run -C benchmark dcgn/benchmark -workload
// paper_eval`, which prints them against the paper's numbers; the orderings
// they state are asserted by internal/apps' TestShape* tests, and Fig. 5 is
// cmd/dcgn-mandel. The ablations run in deterministic virtual time, so the
// numbers of interest are the custom metrics (reported in virtual
// nanoseconds / ratios), not ns/op wall time. The host cost of the engine
// is the benchmark module's to measure: the lanes kept here are the ones
// none of its workloads turns on, and TestEngineAllocBudget is their
// allocation tripwire in `go test`.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dcgn"
	"dcgn/internal/apps"
	"dcgn/internal/core"
	"dcgn/internal/gas"
	"dcgn/internal/loadgen"
	"dcgn/internal/transport"
)

func gasCfg(nodes, cpus, gpus int) gas.Config {
	cfg := gas.DefaultConfig()
	cfg.Nodes, cfg.CPUsPerNode, cfg.GPUsPerNode = nodes, cpus, gpus
	return cfg
}

func dcgnCfg(nodes, cpus, gpus int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = nodes, cpus, gpus
	return cfg
}

// BenchmarkAblationPollInterval sweeps the GPU poll interval: the paper's
// §3.2.3 latency-vs-CPU-load trade-off. Reported: GPU:GPU one-way latency
// and the number of poll transactions the run needed.
func BenchmarkAblationPollInterval(b *testing.B) {
	for _, poll := range []time.Duration{15 * time.Microsecond, 60 * time.Microsecond, 120 * time.Microsecond, 480 * time.Microsecond} {
		b.Run(poll.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.PollInterval = poll
			for i := 0; i < b.N; i++ {
				d, _, err := apps.DCGNSendOneWayReport(cfg, apps.EPGPU, apps.EPGPU, 1024)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(d.Nanoseconds()), "oneway-ns")
			}
		})
	}
}

// BenchmarkAblationEagerLimit sweeps the MPI eager/rendezvous threshold
// around a 16 kB payload.
func BenchmarkAblationEagerLimit(b *testing.B) {
	for _, limit := range []int{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("limit%dk", limit>>10), func(b *testing.B) {
			cfg := gas.DefaultConfig()
			cfg.MPI.EagerLimit = limit
			for i := 0; i < b.N; i++ {
				d, err := apps.MPISendOneWay(cfg, 16<<10)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(d.Nanoseconds()), "oneway-ns")
			}
		})
	}
}

// BenchmarkAblationTreeDispersal compares the paper's sequential local
// dispersal of collective results against its proposed tree dispersal
// (§3.2.3 "one optimization intended for the future"), on a single node
// with 8 CPU ranks broadcasting 512 kB.
func BenchmarkAblationTreeDispersal(b *testing.B) {
	for _, tree := range []bool{false, true} {
		name := "sequential"
		if tree {
			name = "tree"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Params.TreeDispersal = tree
			for i := 0; i < b.N; i++ {
				d, err := apps.DCGNBroadcastCPUShape(cfg, 1, 8, 512<<10)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(d.Nanoseconds()), "bcast-ns")
			}
		})
	}
}

// highFanoutRows are the in-flight populations BenchmarkHighFanoutMatching
// sweeps, each with the allocation budget TestEngineAllocBudget holds one
// run to.
var highFanoutRows = []struct {
	inflight    int
	allocBudget float64
}{{64, 713}, {512, 1380}, {4096, 6285}}

// BenchmarkHighFanoutMatching stresses the comm thread's matching index
// at ROADMAP scale: one sink rank posts thousands of nonblocking receives
// up front while 16 local sources blast messages at it, so the node's
// pending population holds in the thousands. The seed's linear scans made
// this workload quadratic in the in-flight count; the indexed matcher
// keeps wall-clock per message flat (virtual time is identical by
// construction — matching is charged the same cost model either way).
func BenchmarkHighFanoutMatching(b *testing.B) {
	for _, row := range highFanoutRows {
		b.Run(fmt.Sprintf("inflight%d", row.inflight), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := highFanout(b, row.inflight)
				b.ReportMetric(float64(rep.Elapsed.Nanoseconds()), "virtual-ns")
				b.ReportMetric(float64(rep.PeakPending), "peak-pending")
			}
		})
	}
}

func highFanout(tb testing.TB, inflight int) core.Report {
	rep, err := apps.HighFanout(core.DefaultConfig(), 16, inflight)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// Every engine lane moves the same traffic, 64 round trips between two
// nodes: of 1 KiB, except in the two rows that put 1 MiB through the
// copy path — host staging, the frame hand-off to the transport, and PCIe
// for GPU ranks.
const (
	laneIters   = 64
	lanePayload = 1024
	laneLarge   = 1 << 20
)

// engineLanes are the ping-pong bodies BenchmarkEnginePingPong times and
// TestEngineAllocBudget counts, one per wire lane of the simulated
// engine. msgs is the one-way messages a run moves. allocBudget is the
// allocations one run may make — the committed 1x baseline plus 20% plus
// 16 — on every lane, those that a BENCHMARK.json workload's 5%
// allocs_per_op bound also gates (p2p_small, p2p_large, scale_sharded)
// included: a blocking call allocates no control object, so a lane's
// allocations are its set-up, and one allocation per message back is a
// regression of a third or more.
var engineLanes = []struct {
	name        string
	msgs        int
	run         func(testing.TB) dcgn.Report
	allocBudget float64
}{
	{"sim", 2 * laneIters, twoSidedLane(lanePayload, func(*dcgn.Config) {}), 246},
	{"sim-cpu-1MB", 2 * laneIters, twoSidedLane(laneLarge, func(*dcgn.Config) {}), 262},
	{"sim-gpu-1MB", 2 * laneIters, gpuLane(laneLarge), 370},
	// The no-fault overhead of the seq/ack wire format: one ack frame and
	// one retransmit timer per message.
	{"sim-reliable", 2 * laneIters, twoSidedLane(lanePayload, func(c *dcgn.Config) { c.Reliability.Enabled = true }), 1071},
	// Spans plus metrics: the ring buffers are set up once and each
	// histogram on its first observation, so tracing costs a fixed number
	// of allocations per run, not per request.
	{"sim-traced", 2 * laneIters, twoSidedLane(lanePayload, func(c *dcgn.Config) { c.Trace, c.Metrics = true, true }), 274},
	// Causal flow tracing on top: the ID counters live in the trace sink
	// and the 16 header bytes come from the same pools.
	{"sim-flows", 2 * laneIters, twoSidedLane(lanePayload, func(c *dcgn.Config) { c.Trace, c.Metrics, c.Flows = true, true, true }), 767},
	// One shard per node: an outbox merge at every barrier, and a second
	// goroutine only for the windows in which both nodes have work — most
	// of a ping-pong's have one busy shard, which the coordinator runs on
	// its own goroutine, as it does every window of the rows above.
	{"sim-sharded", 2 * laneIters, twoSidedLane(lanePayload, func(c *dcgn.Config) { c.Shards = 2 }), 749},
	{"sim-onesided", 2 * laneIters, oneSidedLane, 739},
	{"sim-triggered", laneIters, triggeredLane, 425},
}

// twoSidedLane is the Send/Recv ping-pong of size-byte messages between two
// CPU ranks under the given configuration.
func twoSidedLane(size int, set func(*dcgn.Config)) func(testing.TB) dcgn.Report {
	return func(tb testing.TB) dcgn.Report {
		cfg := dcgn.DefaultConfig()
		cfg.Nodes, cfg.CPUKernels, cfg.GPUs = 2, 1, 0
		set(&cfg)
		job := dcgn.NewJob(cfg)
		job.SetCPUKernel(func(c *dcgn.CPUCtx) {
			buf := make([]byte, size)
			for k := 0; k < laneIters; k++ {
				var err error
				switch c.Rank() {
				case 0:
					if err = c.Send(1, buf); err == nil {
						_, err = c.Recv(1, buf)
					}
				case 1:
					if _, err = c.Recv(0, buf); err == nil {
						err = c.Send(0, buf)
					}
				}
				if err != nil {
					tb.Error(err)
					return
				}
			}
		})
		return runLane(tb, job)
	}
}

// gpuLane is the same ping-pong between two GPU slots on different nodes:
// every message is staged device -> host, relayed by both comm threads and
// written back host -> device.
func gpuLane(size int) func(testing.TB) dcgn.Report {
	return func(tb testing.TB) dcgn.Report {
		cfg := dcgn.DefaultConfig()
		cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 2, 0, 1, 1
		job := dcgn.NewJob(cfg)
		job.SetGPUSetup(func(s *dcgn.GPUSetup) {
			s.Args["buf"] = s.Dev.Mem().MustAlloc(size)
		})
		job.SetGPUKernel(1, 8, func(g *dcgn.GPUCtx) {
			buf, me := g.Arg("buf").(dcgn.DevPtr), g.Rank(0)
			for k := 0; k < laneIters; k++ {
				var err error
				if me == 0 {
					if err = g.Send(0, 1, buf, size); err == nil {
						_, err = g.Recv(0, 1, buf, size)
					}
				} else if _, err = g.Recv(0, 0, buf, size); err == nil {
					err = g.Send(0, 0, buf, size)
				}
				if err != nil {
					tb.Error(err)
					return
				}
			}
		})
		return runLane(tb, job)
	}
}

// oneSidedLane ping-pongs over the one-sided lane (Put + WinWait instead
// of Send + Recv): no matcher entry, no receive posting.
func oneSidedLane(tb testing.TB) dcgn.Report {
	cfg := dcgn.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = 2, 1, 0
	job := dcgn.NewJob(cfg)
	job.SetCPUKernel(func(c *dcgn.CPUCtx) {
		buf := make([]byte, lanePayload)
		win := make([]byte, lanePayload)
		c.RegisterWindow(0, win)
		c.Barrier()
		peer := 1 - c.Rank()
		for k := 1; k <= laneIters; k++ {
			if c.Rank() == 1 {
				c.WinWait(0, k)
			}
			if err := c.Put(peer, 0, 0, buf); err != nil {
				tb.Error(err)
				return
			}
			if c.Rank() == 0 {
				c.WinWait(0, k)
			}
		}
	})
	return runLane(tb, job)
}

// triggeredLane streams GPU-enqueued descriptors through the NIC model
// into a remote CPU window: descriptor ring, doorbell, direct fire.
func triggeredLane(tb testing.TB) dcgn.Report {
	cfg := dcgn.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 2, 1, 1, 1
	job := dcgn.NewJob(cfg)
	rm := job.Ranks()
	srcRank := rm.GPURank(0, 0, 0)
	dstRank := rm.CPURank(1, 0)
	win := make([]byte, lanePayload)
	job.SetCPUKernel(func(c *dcgn.CPUCtx) {
		if c.Rank() != dstRank {
			return
		}
		// Registered at t=0, inside the device launch latency: no
		// barrier needed before the first descriptor fires.
		c.RegisterWindow(0, win)
		c.WinWait(0, laneIters)
	})
	job.SetGPUSetup(func(s *dcgn.GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(lanePayload)
	})
	job.SetGPUKernel(1, 8, func(g *dcgn.GPUCtx) {
		if g.Rank(0) != srcRank {
			return
		}
		ptr := g.Arg("buf").(dcgn.DevPtr)
		for k := 0; k < laneIters; k++ {
			g.TriggerPut(0, 0, dstRank, 0, 0, ptr, lanePayload)
			g.TriggerFence(0)
		}
	})
	return runLane(tb, job)
}

func runLane(tb testing.TB, job *dcgn.Job) dcgn.Report {
	rep, err := job.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// BenchmarkEnginePingPong drives the layered progress engine — intake,
// matcher, transport — through the fixed ping-pong on every simulated
// wire lane. The virtual one-way time and requests per message are
// deterministic; ns/op and allocs/op are what the lane costs the host.
func BenchmarkEnginePingPong(b *testing.B) {
	for _, lane := range engineLanes {
		b.Run(lane.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := lane.run(b)
				b.ReportMetric(float64(rep.Elapsed.Nanoseconds())/float64(lane.msgs), "oneway-ns")
				b.ReportMetric(float64(rep.Requests)/float64(lane.msgs), "req-per-msg")
			}
		})
	}
}

// scaleFanoutAllocsPerMsg is TestEngineAllocBudget's budget for its
// ScaleFanout row, by the rule of the rows above: the 13 963 allocations a
// run measured, plus 20% plus 16, over its 2 048 messages.
const scaleFanoutAllocsPerMsg = 8.19

// TestEngineAllocBudget is the allocation tripwire for the engine's
// request paths: each lane's ping-pong and each high-fanout population must
// stay inside its allocation budget. The 20% margin rides out run-to-run
// and Go-version noise; since a blocking call allocates no control object,
// a lane's count is its set-up, and one allocation per message back on a
// 128-message lane is growth of half or more. Two rows are workloads'
// paths at a size `go test` runs: scale_sharded's exchange, whose
// per-message control objects are recycled (sim.FreeList), so that a
// regression to allocating them — some ten per message — fails here
// before it reaches the benchmark, and paper_eval's evaluation, held to
// the benchmark's own 5%.
func TestEngineAllocBudget(t *testing.T) {
	// per divides a run's allocations: 1 for a budget per run, the
	// messages it moves for one per message.
	check := func(name string, budget float64, run func(), per float64) {
		if allocs := testing.AllocsPerRun(3, run) / per; allocs > budget {
			t.Errorf("%s: %.2f allocs, budget %.2f", name, allocs, budget)
		}
	}
	for _, lane := range engineLanes {
		check(lane.name+" per run", lane.allocBudget, func() { lane.run(t) }, 1)
	}
	for _, row := range highFanoutRows {
		check(fmt.Sprintf("highfanout/inflight%d per run", row.inflight), row.allocBudget, func() { highFanout(t, row.inflight) }, 1)
	}
	// scale_sharded's exchange on 64 nodes and two shards, budgeted per
	// message: every per-message control object the engine makes — procs,
	// completion events, packets, envelopes, inbound messages, dcgn-tx
	// helpers, the kernels' AsyncOps — comes from its owner's free list,
	// so what is left is the kernel's own buffers and the job's set-up.
	const nodes, rounds, fanout = 64, 4, 4
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.Shards, cfg.MPI.TreeCollectives = nodes, 2, true
	msgs := float64(nodes * rounds * 2 * fanout)
	check("scalefanout/64x2 per message", scaleFanoutAllocsPerMsg, func() {
		if _, _, err := apps.ScaleFanout(cfg, rounds, fanout); err != nil {
			t.Fatal(err)
		}
	}, msgs)
	// serve_sim's path, budgeted per job: each job's set-up on the
	// Runtime's shared substrate, where a tenant starts on what its nodes'
	// previous tenants left — engines, kernel contexts — and on the group,
	// pool and metrics a finished tenant gave back. And its bytes, which
	// weigh a 576-byte pool like an 8-byte name.
	tr := chatTrace(t)
	serve := func() { serveChat(t, tr) }
	check("runtime-sim per job", runtimeSimJobAllocs, serve, float64(len(tr.Arrivals)))
	if kb := allocatedBytes(serve) / float64(len(tr.Arrivals)) / 1e3; kb > runtimeSimJobKB {
		t.Errorf("runtime-sim per job: %.2f kB allocated, budget %.2f kB", kb, runtimeSimJobKB)
	}
	// paper_eval's run, the paper's 65 cells, budgeted per run: what
	// paper_eval's allocs_per_op counts, 65 times over, at a size `go test`
	// runs.
	evaluate := func() {
		if _, err := apps.Evaluate(); err != nil {
			t.Fatal(err)
		}
	}
	check("evaluate per run", evaluateAllocs, evaluate, 1)
	// And its bytes, which the count does not see: a 1 MiB frame back in a
	// 2 MiB class, or device blocks backed before anything touches them.
	if mb := allocatedBytes(evaluate) / 1e6; mb > evaluateMB {
		t.Errorf("evaluate per run: %.1f MB allocated, budget %.1f MB", mb, evaluateMB)
	}
}

// allocatedBytes returns the heap bytes one call of run allocates.
func allocatedBytes(run func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// chatTrace is serve_sim's offered traffic at a size `go test` runs:
// loadgen's chat jobs, seed 1, 5 000 a second for 40 ms of virtual time,
// on 8 nodes.
func chatTrace(tb testing.TB) *loadgen.Trace {
	tr, err := loadgen.RecordTrace(loadgen.Spec{Backend: transport.BackendSim, Seed: 1, Rate: 5000, Duration: 40 * time.Millisecond,
		Arrival: loadgen.ArrivalPoisson, Preset: "chat", Nodes: 8})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// BenchmarkServeChat is serve_sim's path at a size `go test` runs: one
// serveChat batch an iteration, its allocations and bytes reported per job
// (allocs/job, B/job). `make allocprof` reads its allocation sites.
func BenchmarkServeChat(b *testing.B) {
	tr := chatTrace(b)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		serveChat(b, tr)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	jobs := float64(b.N * len(tr.Arrivals))
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/jobs, "allocs/job")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/jobs, "B/job")
}

// serveChat runs tr on a simulated Runtime, every job at its arrival.
func serveChat(tb testing.TB, tr *loadgen.Trace) {
	r, err := core.NewRuntime(core.RuntimeConfig{Nodes: tr.Nodes, Transport: transport.Config{Backend: transport.BackendSim}, MaxQueue: len(tr.Arrivals)})
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	for _, a := range tr.Arrivals {
		if _, err := r.SubmitAt(loadgen.BuildJob(transport.BackendSim, a, false), core.SubmitOpts{Tenant: a.Class, Weight: a.Weight}, a.At()); err != nil {
			tb.Fatal(err)
		}
	}
	if err := r.Run(); err != nil {
		tb.Fatal(err)
	}
	for _, st := range r.List() {
		if st.State != core.JobDone {
			tb.Fatalf("job %d: %v", st.ID, st.State)
		}
	}
}

// runtimeSimJobAllocs is TestEngineAllocBudget's budget for serveChat, by
// the rule of the rows above: the 8 739 allocations a run of its 227 jobs
// measured, plus 20% plus 16, over the jobs.
const runtimeSimJobAllocs = 46.27

// runtimeSimJobKB is its byte budget per job: the 1 858 664 bytes a run
// allocated (Go 1.24, linux/amd64), plus 6%, serve_sim's alloc_kb_per_op
// bound, over the jobs.
const runtimeSimJobKB = 8.68

// evaluateAllocs is TestEngineAllocBudget's budget for one apps.Evaluate:
// the 43 214 allocations a run measured, plus 5%, paper_eval's own
// allocs_per_op bound — 20% would let one engine daemon per node go back to
// a coroutine worker unseen.
const evaluateAllocs = 45375

// evaluateMB is its byte budget: the 152.9 MB one run allocated (Go 1.24,
// linux/amd64), plus 6%, paper_eval's alloc_kb_per_op bound.
const evaluateMB = 162.1

func sizeName(n int) string {
	switch {
	case n == 0:
		return "0B"
	case n < 1<<20:
		return fmt.Sprintf("%dkB", n>>10)
	default:
		return fmt.Sprintf("%dMB", n>>20)
	}
}

// BenchmarkAblationFutureHardware quantifies the paper's §7 "Looking
// Forward" prediction: with device-to-CPU signaling and direct device-NIC
// transfers, DCGN's GPU-sourced message cost collapses toward the raw MPI
// baseline ("performance to rival that of CPU-based communication
// libraries").
func BenchmarkAblationFutureHardware(b *testing.B) {
	modes := []struct {
		name           string
		signal, direct bool
	}{
		{"classic-polling", false, false},
		{"device-signal", true, false},
		{"signal+gpudirect", true, true},
	}
	for _, size := range []int{0, 1 << 20} {
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/%s", m.name, sizeName(size)), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.FutureHW.DeviceSignal = m.signal
				cfg.FutureHW.GPUDirect = m.direct
				for i := 0; i < b.N; i++ {
					d, _, err := apps.DCGNSendOneWayReport(cfg, apps.EPGPU, apps.EPGPU, size)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(d.Nanoseconds()), "oneway-ns")
				}
			})
		}
		b.Run(fmt.Sprintf("raw-MPI-baseline/%s", sizeName(size)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := apps.MPISendOneWay(gas.DefaultConfig(), size)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(d.Nanoseconds()), "oneway-ns")
			}
		})
	}
}

// triggeredAblation is the classic-vs-triggered pair: one GPU-sourced
// message from node 0 to a CPU on node 1, relayed through mailbox copy,
// monitor poll and comm-thread matching, or fired by the NIC model from a
// device-enqueued descriptor straight into the remote window. The golden
// harness pins the same pair at every size.
var triggeredAblation = []struct {
	name string
	run  func(cfg core.Config, size int) (time.Duration, core.Report, error)
}{
	{"classic", func(cfg core.Config, size int) (time.Duration, core.Report, error) {
		return apps.DCGNSendOneWayReport(cfg, apps.EPGPU, apps.EPCPU, size)
	}},
	{"triggered", apps.DCGNTriggeredOneWay},
}

// BenchmarkAblationTriggered regenerates EXPERIMENTS.md's one-sided
// table: one-way latency of both paths per Fig. 6 size, with the
// productive polls and control-plane PCIe operations of the whole run —
// the polling tax the triggered path takes off the critical path.
func BenchmarkAblationTriggered(b *testing.B) {
	for _, size := range apps.SendSizes {
		for _, path := range triggeredAblation {
			b.Run(fmt.Sprintf("%s/%s", path.name, sizeName(size)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d, rep, err := path.run(core.DefaultConfig(), size)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(d.Nanoseconds()), "oneway-ns")
					b.ReportMetric(float64(rep.PollHits), "poll-hits")
					b.ReportMetric(float64(rep.BusCtlOps), "ctl-ops")
				}
			})
		}
	}
}

// BenchmarkAblationMapReduceSlots runs the paper's §3.1 motivating
// map-reduce in both scenarios — uniform element costs and a heavy tail —
// across slot counts, quantifying when slot virtualization pays.
func BenchmarkAblationMapReduceSlots(b *testing.B) {
	for _, tail := range []bool{false, true} {
		scenario := "uniform"
		if tail {
			scenario = "heavytail"
		}
		for _, slots := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/%dslots", scenario, slots), func(b *testing.B) {
				mr := apps.DefaultMapReduceConfig(slots)
				if !tail {
					mr.SlowEvery = 0
				}
				for i := 0; i < b.N; i++ {
					res, err := apps.MapReduceDCGN(dcgnCfg(1, 1, 1), mr)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Verified {
						b.Fatal("wrong reduction")
					}
					b.ReportMetric(float64(res.Elapsed.Nanoseconds()), "makespan-ns")
				}
			})
		}
	}
}

// BenchmarkAblationPipelineVsDynamic compares the §2.3 static GAS pipeline
// against DCGN's dynamic work queue under uniform and skewed stage costs.
func BenchmarkAblationPipelineVsDynamic(b *testing.B) {
	for _, skewed := range []bool{false, true} {
		scenario := "uniform"
		if skewed {
			scenario = "skewed"
		}
		b.Run(scenario, func(b *testing.B) {
			pc := apps.DefaultPipelineConfig(skewed)
			for i := 0; i < b.N; i++ {
				g, err := apps.PipelineGAS(gasCfg(2, 1, 2), pc)
				if err != nil {
					b.Fatal(err)
				}
				d, err := apps.PipelineDCGN(dcgnCfg(2, 1, 2), pc)
				if err != nil {
					b.Fatal(err)
				}
				if !g.Verified || !d.Verified {
					b.Fatal("verification failed")
				}
				b.ReportMetric(float64(g.Elapsed.Nanoseconds()), "gas-pipeline-ns")
				b.ReportMetric(float64(d.Elapsed.Nanoseconds()), "dcgn-dynamic-ns")
			}
		})
	}
}
