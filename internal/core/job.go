package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/device"
	"dcgn/internal/obs"
	"dcgn/internal/obs/flow"
	"dcgn/internal/pcie"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
	"dcgn/internal/transport/live"
	"dcgn/internal/transport/simmpi"
)

// Job is one DCGN application run: a cluster configuration plus the CPU
// and GPU kernels to execute on it. Kernels are the computing primitive
// (paper §3.2): DCGN launches them and services their communication; no
// explicit GPU management is needed from the developer.
type Job struct {
	cfg  Config
	rmap RankMap
	// shapeErr is what is wrong with the configured cluster shape, which
	// checkRunnable reports; the rank map is empty when it is set.
	shapeErr error

	// engineEnv is the host's half of the running engine — substrate,
	// endpoints, pool, clock, wire totals — installed by start: all of a
	// substrate Job.Run builds for the one job, or a tenant's share of the
	// one a Runtime serves every job on.
	engineEnv
	nodes []*nodeState
	// stackful hosts every simulated step machine on a stackful proc that
	// awaits each wake in place: the host a transport whose forms block in
	// place needs, set only by tests that compare the two hosts.
	stackful bool

	cpuKernel func(*CPUCtx)

	// phases is the stream the GPU monitors' initial poll phases are drawn
	// from (gpuThread.monitorPhase); nil until a device needs it.
	phases *rand.Rand

	// trace collects lifecycle spans (Config.Trace); metrics holds the
	// job's instruments (Config.Metrics). Both nil when off.
	trace   *traceSink
	metrics *jobMetrics

	// debug is the live-inspection HTTP endpoint (Config.DebugAddr); see
	// debug.go.
	debug debugServer

	gpuGrid     int
	gpuBlockDim int
	gpuSetup    func(*GPUSetup)
	gpuKernel   func(*GPUCtx)
	gpuTeardown func(*GPUSetup)

	// countsMu guards the per-node byte counts of the chunk size the
	// job's last gather or scatter used (nodeCounts).
	countsMu    sync.Mutex
	countsChunk int
	counts      []int
}

// GPUSetup is the host-side context handed to the GPU setup and teardown
// callbacks: it is where applications allocate device buffers and upload
// inputs before the kernel launches, and read results back afterwards —
// "CUDA kernels are not capable of managing GPU memory; this must be
// handled by the CPU" (paper §2.1).
type GPUSetup struct {
	Job  *Job
	Node int
	GPU  int // device index within the node
	Dev  *device.Device
	Bus  *pcie.Bus
	Proc *sim.Proc
	// Args is published to the kernel via GPUCtx.Arg.
	Args map[string]any
}

// Ranks returns the virtual ranks of this device's slots.
func (gs *GPUSetup) Ranks() []int {
	rm := gs.Job.rmap
	out := make([]int, rm.Spec(gs.Node).SlotsPerGPU)
	for s := range out {
		out[s] = rm.GPURank(gs.Node, gs.GPU, s)
	}
	return out
}

// RegisterWindow exposes n bytes of device memory at ptr as slot's rank's
// one-sided window id: peers Put into it over the PCIe payload path
// without any mailbox transaction on this device. Setup runs before
// kernels launch, so windows registered here are visible before any
// traffic.
func (gs *GPUSetup) RegisterWindow(slot, id int, ptr device.Ptr, n int) {
	ns := gs.Job.nodes[gs.Node]
	rank := gs.Job.rmap.GPURank(gs.Node, gs.GPU, slot)
	ns.registerWindow(&osWindow{key: osWinKey{rank, id}, gt: ns.gpus[gs.GPU], ptr: ptr, size: n})
}

// RegisterTrigger registers a persistent triggered put on this device: n
// bytes of device memory at ptr into window winID of rank dst at offset, on
// behalf of srcSlot's rank. The returned id is
// fired from the kernel with GPUCtx.TriggerStart — register once, fire
// many times, with no descriptor transfer on any fire.
func (gs *GPUSetup) RegisterTrigger(srcSlot, dst, winID, offset int, ptr device.Ptr, n int) int {
	gt := gs.Job.nodes[gs.Node].gpus[gs.GPU]
	gt.requireNIC()
	gt.persist = append(gt.persist, &osPersist{
		srcRank: gs.Job.rmap.GPURank(gs.Node, gs.GPU, srcSlot),
		dstRank: dst, winID: winID, offset: offset, ptr: ptr, size: n,
	})
	return len(gt.persist) - 1
}

// NewJob creates a job for the given cluster configuration. A nonsensical
// cluster shape — no nodes, a PerNode list of the wrong length, a negative
// count or shard count, a node with no ranks — is not refused here but
// reported by Job.Run and Runtime.Submit.
func NewJob(cfg Config) *Job {
	j := &Job{cfg: cfg}
	if j.shapeErr = j.cfg.validate(); j.shapeErr != nil {
		return j
	}
	specs := j.cfg.nodeSpecs()
	for i, s := range specs {
		if j.shapeErr = s.validate(i); j.shapeErr != nil {
			return j
		}
	}
	j.rmap = NewRankMap(specs)
	return j
}

// Config returns the job configuration.
func (j *Job) Config() Config { return j.cfg }

// Ranks returns the job's rank map.
func (j *Job) Ranks() RankMap { return j.rmap }

// hasCPUs reports whether any node contributes CPU-kernel threads.
func (j *Job) hasCPUs() bool {
	for n := 0; n < j.rmap.Nodes(); n++ {
		if j.rmap.Spec(n).CPUKernels > 0 {
			return true
		}
	}
	return false
}

// hasGPUs reports whether any node contributes devices.
func (j *Job) hasGPUs() bool {
	for n := 0; n < j.rmap.Nodes(); n++ {
		if j.rmap.Spec(n).GPUs > 0 {
			return true
		}
	}
	return false
}

// SetCPUKernel installs the kernel run by every CPU-kernel thread.
func (j *Job) SetCPUKernel(fn func(*CPUCtx)) { j.cpuKernel = fn }

// SetGPUKernel installs the kernel launched on every device, with the
// given grid geometry.
func (j *Job) SetGPUKernel(grid, blockDim int, fn func(*GPUCtx)) {
	if grid <= 0 || blockDim <= 0 {
		panic("core: invalid GPU kernel geometry")
	}
	j.gpuGrid, j.gpuBlockDim, j.gpuKernel = grid, blockDim, fn
}

// SetGPUSetup installs the host-side callback run on each device before
// its kernel launches (buffer allocation, input upload).
func (j *Job) SetGPUSetup(fn func(*GPUSetup)) { j.gpuSetup = fn }

// SetGPUTeardown installs the host-side callback run on each device after
// its kernel grid retires (result download, verification).
func (j *Job) SetGPUTeardown(fn func(*GPUSetup)) { j.gpuTeardown = fn }

// Report summarizes a completed run.
type Report struct {
	// Elapsed is the virtual wall-clock time of the whole job.
	Elapsed time.Duration
	// NetPackets / NetBytes count inter-node traffic.
	NetPackets int
	NetBytes   int64
	// BusTransfers / BusCtlOps aggregate PCIe activity over all nodes.
	BusTransfers int
	BusCtlOps    int
	// Polls / PollHits aggregate GPU-monitor polling activity; their ratio
	// is the polling efficiency the paper's §3.2.3 trade-off discussion is
	// about.
	Polls    int
	PollHits int
	// Requests counts messages handled by all comm threads.
	Requests int
	// PeakPending is the high-water mark of any node's matching index
	// (pending sends + receives + unexpected inbound messages).
	PeakPending int
	// PoolAcquires / PoolReleases count staging-buffer pool traffic across
	// the whole run (core and MPI layers share one pool). A clean run
	// releases every acquired buffer: PoolAcquires == PoolReleases.
	PoolAcquires uint64
	PoolReleases uint64
	// PoolHits counts acquires served by reuse rather than allocation.
	PoolHits uint64
	// Retransmits / DupWireFrames / AcksSent / AcksReceived aggregate the
	// reliability layer's activity (reliable.go) over all nodes; all zero
	// when Reliability is off. Nonzero Retransmits on a faulted run is the
	// proof the engine survived loss rather than never seeing any.
	Retransmits   int64
	DupWireFrames int64
	AcksSent      int64
	AcksReceived  int64
	// BadFrames counts arrivals on either lane that failed to decode as a
	// wire frame, over all nodes: each was released and dropped, and only a
	// reliable lane recovers what it carried, by retransmission.
	BadFrames int64
	// CollRetries counts node-level collective calls re-executed after a
	// transient transport failure, summed over all nodes.
	CollRetries int64
	// OneSidedPuts / OneSidedGets count origin-side Put/Get operations and
	// TriggeredOps counts NIC-fired device descriptors over all nodes;
	// OneSidedTruncated counts target-side clipped applies. All zero for a
	// job that made no one-sided call.
	OneSidedPuts      int64
	OneSidedGets      int64
	TriggeredOps      int64
	OneSidedTruncated int64
	// FaultsInjected totals the fault-injection middleware's activity over
	// all nodes (zero without Config.Faults).
	FaultsInjected transport.FaultStats
	// Nodes holds per-node progress-engine statistics, indexed by node.
	Nodes []NodeStats
	// Trace holds per-request lifecycle spans when Config.Trace is on,
	// merged from the per-node rings (completion order within a node).
	Trace []TraceRecord
	// TraceDropped counts spans overwritten in the fixed-size per-node
	// rings; nonzero means Trace is a truncated (most-recent) window.
	TraceDropped uint64
	// CriticalPath is the job's critical path over its elapsed window when
	// Config.Flows is on (internal/obs/flow): the chain of spans and
	// compute gaps tiling the window exactly, so its per-phase totals sum
	// to Elapsed.
	CriticalPath flow.Path
	// Counters / Gauges / Histograms snapshot the job's metrics when
	// Config.Metrics is on: flat instrument names ("match_wait_ns/op=send/
	// src=cpu/size=<2KiB") to final values, for every instrument observed
	// at least once and every engine count that is nonzero. Histogram
	// quantiles come from HistogramSnapshot.QuantileF.
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// HistogramSnapshot is an immutable log2-bucketed distribution from the
// job's metrics (= obs.HistogramSnapshot), carrying count, sum and
// per-bucket counts with Mean and QuantileF accessors.
type HistogramSnapshot = obs.HistogramSnapshot

// NodeStats is one node's progress-engine activity, layer by layer.
type NodeStats struct {
	Node int
	// RequestsHandled counts events the node's comm thread dispatched.
	RequestsHandled int
	// LocalRequests / WireMessages split the intake stream by source:
	// requests posted by resident kernels (CPU and GPU) vs. inbound wire
	// messages funneled in by the receiver.
	LocalRequests int64
	WireMessages  int64
	// PeakIntakeDepth is the high-water mark of the intake queue (events
	// waiting for the comm thread).
	PeakIntakeDepth int
	// PeakPending is the high-water mark of the matching index (pending
	// sends + receives + unexpected inbound messages).
	PeakPending int
	// Retransmits / DupWireFrames / AcksSent / AcksReceived are this node's
	// reliability-layer counters: data frames resent after an ack timeout,
	// duplicate frames discarded by the receiver, and acks sent/received.
	Retransmits   int64
	DupWireFrames int64
	AcksSent      int64
	AcksReceived  int64
	// BadFrames counts this node's arrivals that failed to decode and were
	// dropped.
	BadFrames int64
	// CollRetries counts this node's collective re-executions after
	// transient transport failures.
	CollRetries int64
	// OneSidedPuts / OneSidedGets / TriggeredOps are this node's
	// origin-side one-sided activity.
	OneSidedPuts int64
	OneSidedGets int64
	TriggeredOps int64
	// Faults snapshots the faults injected into this node's transport
	// (zero unless Config.Faults is active).
	Faults transport.FaultStats
}

// Run executes the job to completion and reports results on the
// configured backend: virtual time on the default simulated transport,
// wall-clock time on the live goroutine transport.
func (j *Job) Run() (Report, error) {
	if err := j.checkRunnable(); err != nil {
		return Report{}, err
	}
	j.setupObs(nil)
	if err := j.debug.serve(j.cfg.DebugAddr, j.debugMux); err != nil {
		return Report{}, err
	}
	defer j.debug.stop()
	if j.cfg.Transport.Name() == transport.BackendLive {
		pool := bufpool.New()
		g := live.New(j.cfg.Nodes, pool).Default()
		return j.runLive(liveEndpoints(j.cfg.Nodes, g.Endpoint), pool, g, nil)
	}
	sub := newSubstrate(j.cfg.Nodes, j.cfg.Net, j.cfg.MPI, j.cfg.Shards, j.cfg.MaxVirtualTime)
	j.start(sub.env(simmpi.WorldGroup(sub.world), sub.nodes, sub.pool, 0))
	err := sub.loop.Run()
	rep := j.report()
	for _, h := range j.hosts {
		h.engines.Drop() // the job keeps its engines; the substrate ends here
	}
	return rep, err
}

// checkRunnable validates the job's kernels and shape against its backend,
// before anything is built: once it passes, bringing the engine up cannot
// fail, so no host ever has half-started daemons to unwind. Job.Run and
// Runtime.Submit both start here.
func (j *Job) checkRunnable() error {
	if j.shapeErr != nil {
		return j.shapeErr
	}
	if j.cpuKernel == nil && j.gpuKernel == nil {
		return fmt.Errorf("dcgn: no kernels installed")
	}
	switch j.cfg.Transport.Name() {
	case transport.BackendSim:
		if d := j.cfg.Device; j.hasGPUs() && (d.SMs <= 0 || d.BlocksPerSM <= 0 || d.CoresPerSM <= 0 || d.GFLOPS <= 0 || d.MemBytes < 512) {
			return fmt.Errorf("dcgn: invalid device config %+v: SMs, BlocksPerSM, CoresPerSM and GFLOPS must be positive, MemBytes at least 512", d)
		}
	case transport.BackendLive:
		// The simulated device model does not exist on the live backend, so
		// only CPU kernels are supported; GPU jobs use the simulated one.
		if j.cfg.Shards > 0 {
			return fmt.Errorf("dcgn: sharded runs need the simulated backend (the live backend has no virtual clock to window)")
		}
		if j.hasGPUs() {
			return fmt.Errorf("dcgn: live backend supports CPU kernels only (GPUs need the simulated device model)")
		}
		if j.cfg.JitterFrac > 0 {
			return fmt.Errorf("dcgn: live backend has no virtual-time jitter model")
		}
	default:
		return fmt.Errorf("dcgn: unknown transport backend %q", j.cfg.Transport.Backend)
	}
	if j.cpuKernel == nil && j.hasCPUs() {
		return fmt.Errorf("dcgn: CPU-kernel threads requested but no CPU kernel installed")
	}
	return nil
}

// setupObs creates the job's trace sink and takes its metrics from
// metrics (a nil list makes a new set), as configured.
func (j *Job) setupObs(metrics *sim.FreeList[jobMetrics]) {
	if j.cfg.Trace {
		j.trace = newTraceSink(j.cfg.Nodes, j.rmap.Total(), j.cfg.TraceCap, j.cfg.Flows)
	}
	if j.cfg.Metrics {
		j.metrics = metrics.Get()
	}
}

// metricsSnapshot snapshots the job's metrics: empty once a Runtime has
// given them to another job.
func (j *Job) metricsSnapshot() obs.Snapshot { return j.metrics.snapshot(j) }

// start brings the job's engine up on env: every node's progress engine,
// then the CPU-kernel threads, then the GPU-kernel threads — in that spawn
// order on every substrate, which is what keeps simulated schedules
// bit-identical across hosts. checkRunnable has already passed.
func (j *Job) start(env engineEnv) {
	j.engineEnv = env
	j.nodes = make([]*nodeState, j.cfg.Nodes)
	for n := range j.nodes {
		j.nodes[n] = j.newNodeState(n)
	}
	if j.metrics != nil {
		j.metrics.bind(j, j.nodes)
	}
	j.spawnCPUKernels()
	j.spawnGPUKernels()
}

// newNodeState brings one node's progress engine up on the job's
// substrate. On the simulated one the engine comes from its host node's
// list (hostNode.engines) — one a previous tenant left, or a new one — and
// the node's noise stream becomes this job's: seeded from (JitterFrac,
// JitterSeed, n), so the draws depend on the job and its node and on
// nothing about the host, and whatever the node's previous tenant had
// seeded ends here.
func (j *Job) newNodeState(n int) *nodeState {
	var ns *nodeState
	var h *hostNode
	rtv := j.rt
	if j.hosts == nil {
		ns = new(nodeState)
	} else {
		h = j.hosts[n]
		h.Jitter().Seed(j.cfg.JitterFrac, j.cfg.JitterSeed, n)
		rtv = simRT{s: h.Sim()} // a 1:1 veneer: no allocation, no behavior of its own
		if j.stackful {
			rtv = stackfulRT{simRT{s: h.Sim()}}
		}
		ns = h.engines.Get()
	}
	ns.reset(j, n, rtv, h)
	ns.wrapTransport(j.endpoints[n])
	ns.obsOn = j.trace != nil || j.metrics != nil
	ns.flowsOn = j.cfg.Flows && j.trace != nil
	ns.wire.init(ns, false)
	if s := ns.sim; s != nil && j.rmap.Spec(n).GPUs > 0 {
		// The device model — PCIe bus, devices, their monitors — exists only
		// in virtual time, and only on a node with devices.
		ns.bus = pcie.New(s, fmt.Sprintf("n%d", n), j.cfg.Bus)
		ns.bus.Jit = ns.jit
		for g := 0; g < j.rmap.Spec(n).GPUs; g++ {
			devCfg := j.cfg.Device
			devCfg.Name = fmt.Sprintf("gpu%d.%d", n, g)
			dev := device.New(s, devCfg)
			dev.Jit = ns.jit
			ns.devs = append(ns.devs, dev)
			ns.gpus = append(ns.gpus, newGPUThread(ns, g, dev))
		}
	}
	ns.start()
	for _, gt := range ns.gpus {
		gt.startMonitor()
	}
	return ns
}

// reset makes ns the engine of j's node n on rtv, hosted by h (nil on the
// live backend), holding exactly what a fresh build holds. An engine a
// previous tenant left keeps only storage, each piece emptied: its intake
// queue, its matching index's maps and FIFOs, its collective
// accumulator's map and its reliable lane's tables (relLane.init).
func (ns *nodeState) reset(j *Job, n int, rtv rt, h *hostNode) {
	in, index, coll, seq := ns.intake, ns.index, ns.coll, ns.wire.seq
	*ns = nodeState{job: j, node: n, rt: rtv, intake: in, index: index, coll: coll}
	ns.wire.seq = seq
	if in == nil {
		ns.intake, ns.index, ns.coll = newIntake(rtv.NewQueue("commq", n)), newMatchIndex(), newCollAccum(ns)
	} else {
		in.reset(n)
		index.reset()
		coll.reset()
	}
	if h != nil {
		ns.sim, ns.jit = h.Sim(), h.Jitter()
		ns.txs, ns.ins, ns.joins = &h.txs, &h.ins, &h.joins
		ns.index.sends.free, ns.index.unexp.free = &h.sends, &h.unexp
	}
}

// releaseEngines gives the job's node engines and kernel contexts back to
// their host nodes for their next tenants, once the job's procs are dead:
// a Runtime's release calls it only after killing its tenant's group. The
// job forgets the engines, so that a later read of it cannot see those
// tenants.
func (j *Job) releaseEngines() {
	for n, ns := range j.nodes {
		h := j.hosts[n]
		for c := ns.kernels; c != nil; {
			next := c.next
			h.ctxs.Keep(c)
			c = next
		}
		h.engines.Keep(ns)
	}
	j.nodes = nil
}

// spawnGPUKernels starts the per-device setup/launch/wait/teardown threads
// on each node's own simulator.
func (j *Job) spawnGPUKernels() {
	if j.gpuKernel == nil {
		return
	}
	for n := 0; n < j.cfg.Nodes; n++ {
		for g := 0; g < j.rmap.Spec(n).GPUs; g++ {
			ns := j.nodes[n]
			gt := ns.gpus[g]
			ns.sim.Spawn(fmt.Sprintf("gpu-kern:%d.%d", n, g), func(p *sim.Proc) {
				setup := &GPUSetup{Job: j, Node: ns.node, GPU: gt.index, Dev: gt.dev, Bus: ns.bus, Proc: p, Args: map[string]any{}}
				if j.gpuSetup != nil {
					j.gpuSetup(setup)
				}
				l := gt.dev.Launch(p, j.gpuGrid, j.gpuBlockDim, func(b *device.Block) {
					j.gpuKernel(&GPUCtx{b: b, gt: gt, args: setup.Args})
				})
				l.Wait(p)
				if j.gpuTeardown != nil {
					setup.Proc = p
					j.gpuTeardown(setup)
				}
			})
		}
	}
}

// wrapTransport layers the configured middlewares over the node's raw
// endpoint: the Config.WrapTransport hook first, then Config.Faults
// outermost — faults perturb the fully-wrapped wire, exactly where a real
// fabric would. The node keeps the middleware it built, for report's
// FaultStats.
func (ns *nodeState) wrapTransport(tr transport.Transport) {
	cfg := &ns.job.cfg
	if cfg.WrapTransport != nil {
		tr = cfg.WrapTransport(tr)
	}
	if cfg.Faults.Enabled() {
		ns.faults = faults.New(tr, cfg.Faults, ns.node, ns.job.pool)
		tr = ns.faults
	}
	ns.tr = tr
}

// spawnCPUKernels starts one thread per CPU-kernel rank on the job's
// substrate (simulated procs or live goroutines), each on a kernel context
// from its host node's list — one a previous tenant's kernel left on a
// simulated Runtime, else a new one — linked into its node's kernels.
func (j *Job) spawnCPUKernels() {
	if j.cpuKernel == nil {
		return
	}
	for n := 0; n < j.cfg.Nodes; n++ {
		var ctxs *sim.FreeList[CPUCtx]
		if j.hosts != nil {
			ctxs = j.hosts[n].ctxs
		}
		ns := j.nodes[n]
		for c := 0; c < j.rmap.Spec(n).CPUKernels; c++ {
			ctx := ctxs.Get()
			*ctx = CPUCtx{job: j, ns: ns, rank: j.rmap.CPURank(n, c), ops: ctx.ops, next: ns.kernels}
			ns.kernels = ctx
			ns.rt.SpawnKernel(ctx)
		}
	}
}

// report assembles the job's Report from its host's clock and wire totals
// and the per-node engine state (trace, node stats, bus/GPU aggregates,
// pool accounting). The host calls it once the engine is quiescent.
func (j *Job) report() Report {
	rep := Report{Elapsed: j.clock.Now() - j.epoch}
	rep.NetPackets, rep.NetBytes = j.wire.Totals()
	if j.trace != nil {
		rep.Trace = j.trace.spans()
		rep.TraceDropped = j.trace.dropped()
		if j.cfg.Flows && rep.Elapsed > 0 {
			rep.CriticalPath = flow.CriticalPath(rep.Trace, j.epoch, j.epoch+rep.Elapsed)
		}
	}
	if j.metrics != nil {
		snap := j.metrics.snapshot(j)
		rep.Counters, rep.Gauges, rep.Histograms = snap.Counters, snap.Gauges, snap.Histograms
	}
	rep.Nodes = make([]NodeStats, 0, len(j.nodes))
	for _, ns := range j.nodes {
		st := NodeStats{
			Node:            ns.node,
			RequestsHandled: ns.requestsHandled,
			LocalRequests:   ns.intake.localPosts.Load(),
			WireMessages:    ns.intake.wirePosts.Load(),
			PeakIntakeDepth: int(ns.intake.peakDepth.Load()),
			PeakPending:     ns.index.peakDepth(),
		}
		st.Retransmits = atomic.LoadInt64(&ns.rel.retransmits)
		st.DupWireFrames = atomic.LoadInt64(&ns.rel.dupFrames)
		st.AcksSent = atomic.LoadInt64(&ns.rel.acksSent)
		st.AcksReceived = atomic.LoadInt64(&ns.rel.acksReceived)
		st.BadFrames = atomic.LoadInt64(&ns.rel.badFrames)
		rep.Retransmits += st.Retransmits
		rep.DupWireFrames += st.DupWireFrames
		rep.AcksSent += st.AcksSent
		rep.AcksReceived += st.AcksReceived
		rep.BadFrames += st.BadFrames
		st.CollRetries = atomic.LoadInt64(&ns.collRetried)
		rep.CollRetries += st.CollRetries
		st.OneSidedPuts = ns.osPuts.Load()
		st.OneSidedGets = ns.osGets.Load()
		st.TriggeredOps = ns.osTriggered.Load()
		rep.OneSidedPuts += st.OneSidedPuts
		rep.OneSidedGets += st.OneSidedGets
		rep.TriggeredOps += st.TriggeredOps
		rep.OneSidedTruncated += ns.osTruncated.Load()
		if ns.faults != nil {
			st.Faults = ns.faults.FaultStats()
			rep.FaultsInjected = rep.FaultsInjected.Plus(st.Faults)
		}
		rep.Nodes = append(rep.Nodes, st)
		if ns.bus != nil {
			rep.BusTransfers += ns.bus.Transfers
			rep.BusCtlOps += ns.bus.CtlOps
		}
		rep.Requests += st.RequestsHandled
		if st.PeakPending > rep.PeakPending {
			rep.PeakPending = st.PeakPending
		}
		for _, gt := range ns.gpus {
			rep.Polls += int(gt.polls.Load())
			rep.PollHits += int(gt.hits.Load())
		}
	}
	rep.PoolAcquires = j.pool.Acquires()
	rep.PoolReleases = j.pool.Releases()
	rep.PoolHits = j.pool.Hits()
	return rep
}
