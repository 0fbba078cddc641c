// Package dcgn is a Go reproduction of DCGN — "Distributed Computing on
// GPU Networks" — the message-passing system for data-parallel
// architectures of Stuart & Owens (IPDPS 2009, DOI
// 10.1109/IPDPS.2009.5161065).
//
// DCGN is an MPI-like library in which data-parallel devices (GPUs) are
// first-class communication targets: device kernels call Send, Recv,
// Barrier, Bcast, Gather, Scatter and SendRecv directly, with the host-side
// runtime discovering device-sourced requests by sleep-based polling of
// device memory and relaying them through a per-node communication thread
// that owns the underlying MPI library. MPI ranks are virtualized across
// devices with "slots".
//
// Because no GPU hardware is assumed, the library runs against a
// deterministic simulated substrate: a discrete-event scheduler
// (internal/sim), a data-parallel device model (internal/device), a PCIe
// bus (internal/pcie), a cluster fabric (internal/fabric) and a full
// MPI-style library (internal/mpi) that doubles as the paper's MVAPICH2
// baseline. Kernels execute real Go code and produce real results; timing
// is analytic and deterministic, calibrated so the paper's measured ratios
// hold (see EXPERIMENTS.md).
//
// A minimal ping-pong (the paper's Fig. 3):
//
//	cfg := dcgn.DefaultConfig()
//	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = 2, 1, 0
//	job := dcgn.NewJob(cfg)
//	job.SetCPUKernel(func(c *dcgn.CPUCtx) {
//		x := make([]byte, 4)
//		switch c.Rank() {
//		case 0:
//			c.Send(1, x)
//			c.Recv(1, x)
//		case 1:
//			c.Recv(0, x)
//			c.Send(0, x)
//		}
//	})
//	report, err := job.Run()
package dcgn

import (
	"dcgn/internal/core"
	"dcgn/internal/device"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/pcie"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// Core job types. See the corresponding internal/core documentation for
// full semantics; they are aliased here so the public API is a single
// import.
type (
	// Config describes a DCGN job: cluster shape (nodes, CPU-kernel
	// threads, GPUs, slots per GPU), poll interval, substrate timing and
	// jitter.
	Config = core.Config
	// Params is DCGN's internal overhead model (queue, dispatch, notify,
	// relay costs).
	Params = core.Params
	// Job is one configured DCGN application run.
	Job = core.Job
	// CPUCtx is the host-side kernel API (dcgn::send, dcgn::recv, ...).
	CPUCtx = core.CPUCtx
	// GPUCtx is the device-side kernel API (dcgn::gpu::send with slots).
	GPUCtx = core.GPUCtx
	// GPUSetup is the host-side pre/post-launch context for device buffer
	// management.
	GPUSetup = core.GPUSetup
	// CommStatus reports a completed receive (source rank and byte count).
	CommStatus = core.CommStatus
	// Report summarizes a completed run (virtual elapsed time, traffic and
	// polling statistics).
	Report = core.Report
	// NodeStats is one node's per-layer progress-engine statistics
	// (Report.Nodes).
	NodeStats = core.NodeStats
	// TransportConfig selects the progress-engine backend
	// (Config.Transport): the deterministic simulated MPI transport, or
	// the live goroutine/channel transport on the wall clock.
	TransportConfig = transport.Config
	// RankMap is the paper's Cn + Gn*Sn rank-assignment rule.
	RankMap = core.RankMap
	// NodeSpec describes one node's resource shape for heterogeneous
	// clusters (Config.PerNode).
	NodeSpec = core.NodeSpec
	// FutureHW enables the §7 "Looking Forward" hardware capabilities
	// (device-to-CPU signaling, direct device-NIC transfers).
	FutureHW = core.FutureHW
	// FaultsConfig injects deterministic wire faults (drop, duplicate,
	// reorder, delay, transient collective failures) into the transport
	// (Config.Faults); the zero value is a clean wire.
	FaultsConfig = faults.Config
	// Reliability tunes the wire-level ack/retry layer (Config.Reliability);
	// it is enabled automatically when FaultsConfig injects wire faults.
	Reliability = core.Reliability
	// FaultStats counts the faults a FaultsConfig actually injected
	// (Report.FaultsInjected, NodeStats.Faults).
	FaultStats = transport.FaultStats
	// WinStats is a one-sided window's completion accounting (arrivals,
	// target-side truncations) from CPUCtx.WinStats.
	WinStats = core.WinStats
	// PersistentPut is a registered one-sided put handle: register once
	// with CPUCtx.NewPersistentPut, fire many times with Start.
	PersistentPut = core.PersistentPut
	// AtomicOp selects the combining function of the one-sided atomics
	// (CPUCtx.Accumulate, CPUCtx.FetchAndOp).
	AtomicOp = core.AtomicOp
)

// Multi-tenant runtime types: a long-lived Runtime hosts many concurrent
// Jobs over one shared backend with admission control and weighted fair
// scheduling; Job.Run remains the exclusive single-job path (a runtime
// of one).
type (
	// Runtime hosts many concurrent jobs over one shared backend.
	Runtime = core.Runtime
	// RuntimeConfig describes the shared substrate a Runtime serves on.
	RuntimeConfig = core.RuntimeConfig
	// SubmitOpts labels a submission (name, tenant, weight, priority).
	SubmitOpts = core.SubmitOpts
	// JobHandle tracks one submission (Wait, Status, Cancel).
	JobHandle = core.JobHandle
	// JobStatus is a point-in-time snapshot of one submission.
	JobStatus = core.JobStatus
	// JobState is the lifecycle state of a submitted job.
	JobState = core.JobState
)

// Job lifecycle states (JobStatus.State).
const (
	// JobQueued means the job awaits free nodes in the admission queue.
	JobQueued = core.JobQueued
	// JobRunning means the job's kernels are executing.
	JobRunning = core.JobRunning
	// JobDone means the job completed and its Report is final.
	JobDone = core.JobDone
	// JobFailed means the job ended with an error.
	JobFailed = core.JobFailed
	// JobCanceled means the job was canceled before or during execution.
	JobCanceled = core.JobCanceled
)

// ErrJobCanceled is reported by a handle whose job was canceled.
var ErrJobCanceled = core.ErrJobCanceled

// ErrQueueFull is reported by Submit past the bounded admission queue.
var ErrQueueFull = core.ErrQueueFull

// ErrRuntimeClosed is reported by Submit on a draining or closed runtime.
var ErrRuntimeClosed = core.ErrRuntimeClosed

// NewRuntime builds a multi-tenant runtime over a shared backend. Live
// runtimes serve submissions immediately and concurrently; simulated
// runtimes collect a batch and execute it deterministically in Run.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return core.NewRuntime(cfg) }

// Combining functions for the one-sided atomics (AtomicOp).
const (
	// AtomicSum adds the operand to the window element (MPI_SUM).
	AtomicSum = core.AtomicSum
	// AtomicMin keeps the smaller of element and operand (MPI_MIN).
	AtomicMin = core.AtomicMin
	// AtomicMax keeps the larger of element and operand (MPI_MAX).
	AtomicMax = core.AtomicMax
	// AtomicReplace overwrites the element with the operand (MPI_REPLACE).
	AtomicReplace = core.AtomicReplace
)

// Substrate types reachable from the public API (device buffers in GPU
// setup callbacks, configuration of the simulated hardware).
type (
	// Device is the simulated data-parallel machine.
	Device = device.Device
	// DevPtr is a device-memory address.
	DevPtr = device.Ptr
	// Block is the execution context of one device thread-block.
	Block = device.Block
	// DeviceConfig describes a simulated device (SMs, GFLOPS, memory).
	DeviceConfig = device.Config
	// NetConfig describes the simulated cluster interconnect.
	NetConfig = fabric.Config
	// BusConfig describes the simulated PCIe bus.
	BusConfig = pcie.Config
	// MPIConfig tunes the underlying MPI library.
	MPIConfig = mpi.Config
)

// AnySource matches any sending rank in Recv.
const AnySource = core.AnySource

// Progress-engine backend names for TransportConfig.Backend.
const (
	// BackendSim is the default deterministic simulated-MPI backend.
	BackendSim = transport.BackendSim
	// BackendLive runs the engine on real goroutines over an in-process
	// channel transport, on the wall clock (CPU kernels only).
	BackendLive = transport.BackendLive
)

// DevNull is the device null pointer.
const DevNull = device.Null

// ErrTruncate is reported when a message exceeds the posted receive
// buffer.
var ErrTruncate = core.ErrTruncate

// ErrUnacked is reported when the reliability layer exhausts its
// retransmit budget without an acknowledgement.
var ErrUnacked = core.ErrUnacked

// NewJob creates a job for the given cluster configuration.
func NewJob(cfg Config) *Job { return core.NewJob(cfg) }

// DefaultConfig returns the paper's testbed shape — 4 nodes, each with two
// dual-core-era CPUs (2 CPU-kernel threads) and two G92-class GPUs — with
// substrate constants calibrated against the paper's measurements.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultParams returns the calibrated DCGN overhead model.
func DefaultParams() Params { return core.DefaultParams() }
