// Package core implements DCGN — Distributed Computing on GPU Networks
// (Stuart & Owens, IPDPS 2009) — an MPI-like message-passing library in
// which data-parallel devices are first-class communication targets.
//
// The architecture follows §3.2.2–§3.2.3 of the paper. Each node process
// hosts three classes of threads:
//
//   - CPU-kernel threads execute user CPU kernels and relay their
//     communication requests to the communication thread;
//   - GPU-kernel threads launch device kernels, monitor device memory for
//     device-sourced communication requests via sleep-based polling, and
//     shuttle data over the PCIe bus;
//   - exactly one communication thread per node owns the underlying MPI
//     library, executes every MPI call, performs local (intra-node)
//     matching with memcpy instead of MPI, and accumulates collective
//     arrivals until every resident rank has joined.
//
// Ranks are virtualized with slots: node n owns Cn + Gn*Sn consecutive
// ranks (CPU-kernel threads first, then GPU slots in (gpu, slot) order).
package core

import (
	"errors"
	"fmt"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/pcie"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// Reliability configures the engine's wire-level reliability layer
// (reliable.go): sequence numbers on every wire frame, receiver-side
// dedup/resequencing, and sender-side ack/timeout/retransmit with capped
// exponential backoff. Off by default — frames then carry no sequence
// number — and auto-enabled whenever Config.Faults can drop or reorder wire messages,
// because an unreliable engine deadlocks on the first lost packet.
type Reliability struct {
	// Enabled switches every wire frame to the sequenced format and turns
	// on ack/retransmit.
	Enabled bool
	// AckTimeout is the initial retransmit timeout (default 20ms); each
	// retry doubles it up to BackoffCap.
	AckTimeout time.Duration
	// MaxRetries bounds retransmissions per message (default 12) before
	// the send completes with ErrUnacked.
	MaxRetries int
	// BackoffCap bounds the doubled timeout (default 500ms).
	BackoffCap time.Duration
}

// Params holds DCGN's internal overhead model. The defaults give a 0-byte
// DCGN CPU:CPU send 25.7x the raw MPI send (paper: 28x), a 2-CPU
// single-node barrier 13.4x MPI (paper: 12.67x), a 0-byte GPU:GPU send
// 109x (paper: 564x) and a 1 MB CPU:CPU send 1.08x (paper: 1.04x).
// apps.TestPaperEvaluation pins these and the paper's other reference
// points; EXPERIMENTS.md tabulates their residuals.
type Params struct {
	// EnqueueCost is charged to a kernel thread for posting one request
	// into the comm thread's thread-safe work queue (lock + allocation +
	// TSD lookup).
	EnqueueCost time.Duration
	// DispatchCost is charged on the comm thread per request it dequeues
	// and routes (wakeup + demux).
	DispatchCost time.Duration
	// NotifyCost is charged on the comm thread per completion it signals
	// back to a waiting kernel thread (condition-variable wake).
	NotifyCost time.Duration
	// RemoteRelayCost is charged per inter-node message on each side
	// (header packing, request bookkeeping, and the extra queue hop through
	// the MPI receiver helper). It is why a remote DCGN send costs 25.7x a
	// raw MPI send at 0 bytes while a single-node barrier is 13.4x.
	RemoteRelayCost time.Duration
	// LocalMemcpyBW is the bandwidth of intra-node staging copies performed
	// by the comm thread (bytes/sec).
	LocalMemcpyBW float64
	// TreeDispersal enables the paper's proposed future optimization of
	// copying collective results to local buffers in a tree instead of
	// sequentially (§3.2.3); off by default, as in the paper.
	TreeDispersal bool
	// DoorbellCost is charged per one-sided descriptor post: the doorbell
	// write that hands a put/get to the NIC model, whether rung by a CPU
	// kernel or by a GPU-triggered descriptor (default 1µs). Only charged
	// on the one-sided lane, so classic-path timing is untouched.
	DoorbellCost time.Duration
	// OneSidedApplyCost is charged at the target per applied one-sided
	// frame: window lookup, bounds clipping and completion accounting in
	// the sink daemon (default 2µs). Only charged on the one-sided lane.
	OneSidedApplyCost time.Duration
}

// FutureHW models the vendor additions the paper asks for (§5.2 "Looking
// Forward", §7): "A method for signaling the CPU from the GPU, a direct
// connection to the NIC, a direct GPU-to-GPU connection via PCI-e, and
// buffers in system memory so the GPU may push data."
type FutureHW struct {
	// DeviceSignal lets the device raise a doorbell interrupt instead of
	// being polled: requests are serviced immediately, eliminating the
	// poll-interval alignment of every stage.
	DeviceSignal bool
	// GPUDirect moves payloads between device memory and the NIC without
	// staging through host buffers: DMA setup latency drops to doorbell
	// cost and the CPU relay bookkeeping per payload disappears.
	GPUDirect bool
}

// DefaultParams returns the calibrated overhead model.
func DefaultParams() Params {
	return Params{
		EnqueueCost:       5 * time.Microsecond,
		DispatchCost:      10 * time.Microsecond,
		NotifyCost:        7 * time.Microsecond,
		RemoteRelayCost:   18 * time.Microsecond,
		LocalMemcpyBW:     4e9,
		DoorbellCost:      1 * time.Microsecond,
		OneSidedApplyCost: 2 * time.Microsecond,
	}
}

// Config describes one DCGN job: a homogeneous cluster (as in the paper's
// testbed) of Nodes nodes, each contributing CPUKernels CPU-kernel threads,
// GPUs devices and SlotsPerGPU communication slots per device.
type Config struct {
	Nodes       int
	CPUKernels  int // Cn: CPU-kernel threads per node
	GPUs        int // Gn: devices per node
	SlotsPerGPU int // Sn: slots (virtualized ranks) per device

	// PerNode optionally overrides the homogeneous counts above with a
	// heterogeneous cluster shape; when set, its length must equal Nodes.
	// The paper's rank rule and vector collectives handle this directly
	// (§3.2.3: "Every node_n is given Cn + (Gn x Sn) ranks").
	PerNode []NodeSpec

	// PollInterval is the sleep between GPU-memory polls by a GPU-kernel
	// thread (the paper's latency/CPU-load trade-off, §3.2.3).
	PollInterval time.Duration

	// FutureHW enables the hardware capabilities the paper's §7 "Looking
	// Forward" predicts: with them, "DCGN and other libraries' performance
	// [will] rival that of CPU-based communication libraries". Off by
	// default (the paper's 2008 reality).
	FutureHW FutureHW

	Device device.Config
	Net    fabric.Config
	Bus    pcie.Config
	MPI    mpi.Config
	Params Params

	// Transport selects the progress-engine backend: the default simulated
	// MPI transport on the deterministic virtual cluster, or the live
	// goroutine/channel transport on the wall clock (CPU kernels only).
	Transport transport.Config

	// WrapTransport, when set, wraps each node's transport endpoint before
	// the progress engine uses it: a test's instrumentation or targeted
	// failure. A wrapper that embeds the transport forwards every call it
	// does not override, step forms included, so the engine's senders and
	// receivers run on the hosts they run on unwrapped; an override of
	// SendStep or RecvStep is a step form too and must not block on the
	// simulator.
	WrapTransport func(transport.Transport) transport.Transport

	// Faults installs the deterministic fault-injection middleware
	// (internal/transport/faults) outermost on every node's transport.
	// Any nonzero wire-fault probability auto-enables Reliability. The
	// streams are seeded per endpoint, so the job's faults are its own under
	// any host: a Runtime tenant's Report is its Job.Run's, its co-tenants'
	// are theirs.
	Faults faults.Config

	// Reliability configures the wire-level ack/retransmit layer; see the
	// Reliability type. Zero value = off (legacy wire format).
	Reliability Reliability

	// Shards is how many OS threads the simulated cluster's event loops may
	// use: the nodes are split into that many groups, each with its own
	// loop, synchronized by conservative lookahead windows derived from the
	// fabric's minimum cross-shard latency (internal/sim.Sharded). Results
	// are bit-identical for every value, 0 (which means 1) included; only
	// the wall-clock time changes, with jitter on as with it off. Clamped to
	// Nodes. Simulated backend only. Read by Job.Run, which builds the
	// cluster; a Runtime built its own and ignores it, like Net and MPI.
	Shards int

	// JitterFrac/JitterSeed add multiplicative timing noise (for the
	// run-to-run variation experiments, Fig. 5): every modeled cost charged
	// on a node — engine, MPI library, NICs, bus, devices — is scaled by a
	// factor in [1-JitterFrac, 1+JitterFrac] drawn from that node's stream,
	// which the job seeds from JitterSeed and the node's index. The noise is
	// the job's: the same on every shard count and as a Runtime tenant. A
	// zero JitterFrac disables it; the live backend, which models no time,
	// refuses it.
	JitterFrac float64
	JitterSeed int64

	// MaxVirtualTime aborts runaway simulations; zero means one hour of
	// virtual time.
	MaxVirtualTime time.Duration

	// Trace records every communication request's lifecycle span into
	// Report.Trace (op, ranks, and per-phase timestamps: posted, dequeued,
	// handled, matched, wire-sent, acked, done). For debugging, the
	// dcgn-trace inspection output and the Chrome/Perfetto exporter; small
	// overhead, off by default.
	Trace bool

	// TraceCap overrides the per-node span ring capacity (default
	// obs.DefaultRingCap, 8192). Once a node's ring is full the oldest
	// spans are overwritten and Report.TraceDropped counts them.
	TraceCap int

	// Flows enables causal message-flow tracing (internal/obs/flow): every
	// traced span gets a trace ID and span ID, wire frames on both
	// transports and the one-sided lane carry the 16-byte flow context so
	// receives inherit their sender's trace, Report.CriticalPath attributes
	// the job's elapsed time phase by phase, and the Chrome exporter emits
	// Perfetto flow arrows linking send→recv→ack across nodes. Implies
	// Trace. Off by default: the context lengthens every wire frame, so
	// flows-on runs are deterministic per seed but not byte-identical to
	// flows-off runs.
	Flows bool

	// Metrics enables the job's metrics: log2-bucketed histograms (match
	// wait, queue depth, retransmit backoff, collective-accumulation wait,
	// one-sided phases) plus the engine's own counts (poll efficiency,
	// one-sided operations, the matching index's peak), snapshotted into
	// Report.Histograms / Counters / Gauges. Off by default.
	Metrics bool

	// DebugAddr, when non-empty, serves live expvar-style JSON snapshots
	// of the job's metrics over HTTP for mid-run inspection (":0"
	// picks a free port; see Job.DebugAddr). Setting it implies Metrics.
	DebugAddr string
}

// DefaultConfig returns the paper's testbed shape: 4 nodes, 2 CPU-kernel
// threads and 2 GPUs per node, 1 slot per GPU, with calibrated substrate
// constants.
func DefaultConfig() Config {
	return Config{
		Nodes:        4,
		CPUKernels:   2,
		GPUs:         2,
		SlotsPerGPU:  1,
		PollInterval: 120 * time.Microsecond,
		Device:       device.DefaultConfig("gpu"),
		Net:          fabric.DefaultConfig(),
		Bus:          pcie.DefaultConfig(),
		MPI:          mpi.DefaultConfig(),
		Params:       DefaultParams(),
	}
}

// validate fills in the configuration's defaults and reports the first
// thing wrong with its cluster shape as a whole, nil when there is none;
// NewJob checks each node's shape (NodeSpec.validate) after it.
func (c *Config) validate() error {
	uniform := len(c.PerNode) == 0
	if uniform && c.GPUs > 0 && c.SlotsPerGPU == 0 {
		c.SlotsPerGPU = 1 // paper: "each DPM has at least one slot"
	}
	var err error
	switch {
	case c.Nodes <= 0:
		err = errors.New("dcgn: need at least one node")
	case !uniform && len(c.PerNode) != c.Nodes:
		err = fmt.Errorf("dcgn: PerNode has %d nodes, Nodes is %d", len(c.PerNode), c.Nodes)
	case uniform && (c.CPUKernels < 0 || c.GPUs < 0 || c.SlotsPerGPU < 0):
		err = errors.New("dcgn: negative resource count")
	case uniform && c.CPUKernels+c.GPUs*c.SlotsPerGPU == 0:
		err = errors.New("dcgn: node contributes no ranks")
	case c.Shards < 0:
		err = errors.New("dcgn: negative shard count")
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 120 * time.Microsecond
	}
	if c.Shards > c.Nodes {
		c.Shards = c.Nodes
	}
	if c.Params == (Params{}) { // a partly set model is the caller's, as it is
		c.Params = DefaultParams()
	}
	if c.Params.DoorbellCost <= 0 {
		c.Params.DoorbellCost = 1 * time.Microsecond
	}
	if c.Params.OneSidedApplyCost <= 0 {
		c.Params.OneSidedApplyCost = 2 * time.Microsecond
	}
	if c.MaxVirtualTime == 0 {
		c.MaxVirtualTime = time.Hour
	}
	if c.Faults.WireActive() {
		c.Reliability.Enabled = true
	}
	if c.Reliability.AckTimeout <= 0 {
		c.Reliability.AckTimeout = 20 * time.Millisecond
	}
	if c.Reliability.MaxRetries <= 0 {
		c.Reliability.MaxRetries = 12
	}
	if c.Reliability.BackoffCap <= 0 {
		c.Reliability.BackoffCap = 500 * time.Millisecond
	}
	if c.DebugAddr != "" {
		c.Metrics = true
	}
	if c.Flows {
		c.Trace = true
	}
	return err
}

// nodeSpecs expands the configuration into per-node shapes.
func (c *Config) nodeSpecs() []NodeSpec {
	if len(c.PerNode) > 0 {
		specs := append([]NodeSpec(nil), c.PerNode...)
		for i := range specs {
			if specs[i].GPUs > 0 && specs[i].SlotsPerGPU == 0 {
				specs[i].SlotsPerGPU = 1
			}
		}
		return specs
	}
	specs := make([]NodeSpec, c.Nodes)
	for i := range specs {
		specs[i] = NodeSpec{CPUKernels: c.CPUKernels, GPUs: c.GPUs, SlotsPerGPU: c.SlotsPerGPU}
	}
	return specs
}
