// Package apps implements the paper's test applications (§4) on both
// execution models: DCGN and GAS+MPI. Each experiment from the evaluation
// (§5) has a function here, and Evaluate is the one place that evaluation
// is put together: it runs every cell and sets the paper's numbers beside
// ours.
package apps

import (
	"fmt"
	"sync"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
	"dcgn/internal/gas"
)

// Endpoint selects which kind of rank sources or sinks a transfer.
type Endpoint int

// Endpoints for the send micro-benchmark pairings.
const (
	EPCPU Endpoint = iota
	EPGPU
)

// String names the endpoint kind for table and benchmark labels.
func (e Endpoint) String() string {
	if e == EPCPU {
		return "CPU"
	}
	return "GPU"
}

// warmup gives the receiver time to pre-post its receive (and, for GPU
// receivers, to have the posted receive polled and relayed) before the
// send is timed, mirroring the steady-state iterations of the paper's
// micro-benchmarks.
const warmup = 5 * time.Millisecond

// DCGNSendOneWayReport measures the one-way delivery time of one
// size-byte DCGN message from a src-type rank on node 0 to a dst-type rank
// on node 1 (Fig. 6), and returns the run's Report with it. Virtual clocks
// are global, so one-way time is measured directly from send initiation at
// the source to receive completion at the destination.
func DCGNSendOneWayReport(cfg core.Config, src, dst Endpoint, size int) (time.Duration, core.Report, error) {
	cfg.Nodes = 2
	cfg.CPUKernels = 1
	cfg.GPUs = 1
	cfg.SlotsPerGPU = 1
	job := core.NewJob(cfg)
	rm := job.Ranks()

	srcRank := rm.CPURank(0, 0)
	if src == EPGPU {
		srcRank = rm.GPURank(0, 0, 0)
	}
	dstRank := rm.CPURank(1, 0)
	if dst == EPGPU {
		dstRank = rm.GPURank(1, 0, 0)
	}

	var tStart, tEnd time.Duration
	bufSize := size
	if bufSize == 0 {
		bufSize = 1 // device allocations cannot be empty; payload is size bytes
	}

	job.SetCPUKernel(func(c *core.CPUCtx) {
		switch c.Rank() {
		case srcRank:
			c.Compute(warmup)
			tStart = c.Now()
			if err := c.Send(dstRank, make([]byte, size)); err != nil {
				panic(err)
			}
		case dstRank:
			if _, err := c.Recv(srcRank, make([]byte, size)); err != nil {
				panic(err)
			}
			tEnd = c.Now()
		}
	})
	job.SetGPUSetup(func(s *core.GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(bufSize)
	})
	job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
		ptr := g.Arg("buf").(device.Ptr)
		switch g.Rank(0) {
		case srcRank:
			g.Block().ChargeTime(warmup)
			tStart = g.Block().Proc().Now()
			if err := g.Send(0, dstRank, ptr, size); err != nil {
				panic(err)
			}
		case dstRank:
			if _, err := g.Recv(0, srcRank, ptr, size); err != nil {
				panic(err)
			}
			tEnd = g.Block().Proc().Now()
		}
	})
	rep, err := job.Run()
	if err != nil {
		return 0, core.Report{}, err
	}
	if tEnd <= tStart {
		return 0, core.Report{}, fmt.Errorf("apps: send never completed (start %v end %v)", tStart, tEnd)
	}
	return tEnd - tStart, rep, nil
}

// MPISendOneWay measures the raw-MPI (MVAPICH2 stand-in) one-way delivery
// time between CPU ranks on two nodes — the baseline curve of Fig. 6.
func MPISendOneWay(cfg gas.Config, size int) (time.Duration, error) {
	cfg.Nodes = 2
	cfg.CPUsPerNode = 1
	cfg.GPUsPerNode = 0
	var tStart, tEnd time.Duration
	_, err := gas.Run(cfg, func(w *gas.Worker) {
		buf := make([]byte, size)
		switch w.Rank.ID() {
		case 0:
			w.P.Sleep(warmup)
			tStart = w.P.Now()
			if err := w.Rank.Send(w.P, buf, 1, 0); err != nil {
				panic(err)
			}
		case 1:
			if _, err := w.Rank.Recv(w.P, buf, 0, 0); err != nil {
				panic(err)
			}
			tEnd = w.P.Now()
		}
	})
	if err != nil {
		return 0, err
	}
	return tEnd - tStart, nil
}

// bcastIters is how many broadcasts are averaged per data point (the
// paper: "a series of iterations per data size").
const bcastIters = 5

// bcastTimer accumulates per-iteration completion latencies: a broadcast's
// time is from the root entering the call to the LAST rank holding the
// data (a root-only timer would measure nothing once small sends complete
// eagerly).
type bcastTimer struct {
	start  [bcastIters]time.Duration
	mu     sync.Mutex // ranks on different shards finish concurrently
	finish [bcastIters]time.Duration
}

func (bt *bcastTimer) enter(iter int, isRoot bool, now time.Duration) {
	if isRoot {
		bt.start[iter] = now
	}
}

func (bt *bcastTimer) done(iter int, now time.Duration) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	if now > bt.finish[iter] {
		bt.finish[iter] = now
	}
}

func (bt *bcastTimer) mean() time.Duration {
	var total time.Duration
	for i := 0; i < bcastIters; i++ {
		total += bt.finish[i] - bt.start[i]
	}
	return total / bcastIters
}

// DCGNBroadcastCPU measures the mean DCGN broadcast completion latency
// with 8 CPU ranks over 4 nodes (Fig. 7 "DCGN 8 CPUs").
func DCGNBroadcastCPU(cfg core.Config, size int) (time.Duration, error) {
	return DCGNBroadcastCPUShape(cfg, 4, 2, size)
}

// DCGNBroadcastCPUShape is DCGNBroadcastCPU with an explicit cluster shape
// (the tree-dispersal ablation wants many ranks on one node, where local
// dispersal dominates).
func DCGNBroadcastCPUShape(cfg core.Config, nodes, cpusPerNode, size int) (time.Duration, error) {
	cfg.Nodes = nodes
	cfg.CPUKernels = cpusPerNode
	cfg.GPUs = 0
	cfg.SlotsPerGPU = 0
	job := core.NewJob(cfg)
	var bt bcastTimer
	job.SetCPUKernel(func(c *core.CPUCtx) {
		buf := make([]byte, size)
		for i := 0; i < bcastIters; i++ {
			c.Barrier()
			bt.enter(i, c.Rank() == 0, c.Now())
			if err := c.Bcast(0, buf); err != nil {
				panic(err)
			}
			bt.done(i, c.Now())
		}
	})
	if _, err := job.Run(); err != nil {
		return 0, err
	}
	return bt.mean(), nil
}

// DCGNBroadcastGPU measures the mean DCGN broadcast time with 8 GPU ranks
// over 4 nodes (Fig. 7 "DCGN 8 GPUs"). Timing is taken at the root slot,
// device-side.
func DCGNBroadcastGPU(cfg core.Config, size int) (time.Duration, error) {
	cfg.Nodes = 4
	cfg.CPUKernels = 0
	cfg.GPUs = 2
	cfg.SlotsPerGPU = 1
	job := core.NewJob(cfg)
	rm := job.Ranks()
	root := rm.GPURank(0, 0, 0)
	var bt bcastTimer
	job.SetGPUSetup(func(s *core.GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(size)
	})
	job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
		ptr := g.Arg("buf").(device.Ptr)
		for i := 0; i < bcastIters; i++ {
			g.Barrier(0)
			bt.enter(i, g.Rank(0) == root, g.Block().Proc().Now())
			if err := g.Bcast(0, root, ptr, size); err != nil {
				panic(err)
			}
			bt.done(i, g.Block().Proc().Now())
		}
	})
	if _, err := job.Run(); err != nil {
		return 0, err
	}
	return bt.mean(), nil
}

// MPIBroadcast measures the mean raw-MPI broadcast time with 8 CPU ranks
// over 4 nodes (Fig. 7 "MVAPICH2 8 CPUs").
func MPIBroadcast(cfg gas.Config, size int) (time.Duration, error) {
	cfg.Nodes = 4
	cfg.CPUsPerNode = 2
	cfg.GPUsPerNode = 0
	var bt bcastTimer
	_, err := gas.Run(cfg, func(w *gas.Worker) {
		buf := make([]byte, size)
		for i := 0; i < bcastIters; i++ {
			w.Rank.Barrier(w.P)
			bt.enter(i, w.Rank.ID() == 0, w.P.Now())
			if err := w.Rank.Bcast(w.P, buf, 0); err != nil {
				panic(err)
			}
			bt.done(i, w.P.Now())
		}
	})
	if err != nil {
		return 0, err
	}
	return bt.mean(), nil
}

// MPIBarrier measures the mean raw-MPI barrier latency across
// nodes*cpusPerNode CPU ranks (Table 1's MPI column).
func MPIBarrier(cfg gas.Config, nodes, cpusPerNode int) (time.Duration, error) {
	cfg.Nodes = nodes
	cfg.CPUsPerNode = cpusPerNode
	cfg.GPUsPerNode = 0
	const iters = 10
	var mean time.Duration
	_, err := gas.Run(cfg, func(w *gas.Worker) {
		w.Rank.Barrier(w.P) // warm in
		start := w.P.Now()
		for i := 0; i < iters; i++ {
			w.Rank.Barrier(w.P)
		}
		if w.Rank.ID() == 0 {
			mean = (w.P.Now() - start) / iters
		}
	})
	if err != nil {
		return 0, err
	}
	return mean, nil
}

// DCGNBarrier measures one DCGN barrier for a given node/CPU/GPU shape
// (Table 1's DCGN columns), using the paper's measurement protocol: GPU
// slots enter the barrier as soon as their kernels start, CPU ranks join
// shortly after, and the barrier is timed at CPU rank 0 when CPUs are
// present, else device-side at GPU slot 0. (The paper notes GPU rows "are
// not directly comparable as significantly more work is done to perform a
// barrier by a GPU".)
func DCGNBarrier(cfg core.Config, nodes, cpusPerNode, gpusPerNode int) (time.Duration, error) {
	// Polling phases are random on a real cluster; average over seeds.
	const seeds = 5
	var total time.Duration
	for seed := int64(1); seed <= seeds; seed++ {
		c := cfg
		c.JitterSeed = seed
		d, err := dcgnBarrierOnce(c, nodes, cpusPerNode, gpusPerNode)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / seeds, nil
}

func dcgnBarrierOnce(cfg core.Config, nodes, cpusPerNode, gpusPerNode int) (time.Duration, error) {
	cfg.Nodes = nodes
	cfg.CPUKernels = cpusPerNode
	cfg.GPUs = gpusPerNode
	if gpusPerNode > 0 {
		cfg.SlotsPerGPU = 1
	} else {
		cfg.SlotsPerGPU = 0
	}
	job := core.NewJob(cfg)
	rm := job.Ranks()
	var measured time.Duration

	if cpusPerNode > 0 {
		job.SetCPUKernel(func(c *core.CPUCtx) {
			c.Compute(time.Millisecond) // GPU arrivals are already in flight
			start := c.Now()
			c.Barrier()
			if c.Rank() == rm.CPURank(0, 0) {
				measured = c.Now() - start
			}
		})
	}
	if gpusPerNode > 0 {
		gpuTimed := cpusPerNode == 0
		root := rm.GPURank(0, 0, 0)
		job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
			start := g.Block().Proc().Now()
			g.Barrier(0)
			if gpuTimed && g.Rank(0) == root {
				measured = g.Block().Proc().Now() - start
			}
		})
	}
	if _, err := job.Run(); err != nil {
		return 0, err
	}
	return measured, nil
}

// SendSizes are the default message sizes of the send micro-benchmark,
// matching Fig. 6's axis (0 B .. 1 MB).
var SendSizes = []int{0, 1 << 10, 64 << 10, 256 << 10, 1 << 20}

// BcastSizes matches Fig. 7's axis (1 kB .. 512 kB).
var BcastSizes = []int{1 << 10, 8 << 10, 64 << 10, 512 << 10}
