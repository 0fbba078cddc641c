package apps

import (
	"fmt"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
)

// DCGNTriggeredOneWay measures the one-way delivery time of one size-byte
// GPU-triggered put from the GPU on node 0 into a CPU-owned window on node
// 1: the device enqueues a descriptor, the NIC model fires it directly,
// and the target's WinWait observes remote completion — no mailbox copy,
// no monitor poll tick on the critical path. It is the one-sided
// counterpart of DCGNSendOneWayReport(EPGPU, EPCPU, size); the returned
// Report carries the Polls and BusCtlOps the comparison is about.
func DCGNTriggeredOneWay(cfg core.Config, size int) (time.Duration, core.Report, error) {
	cfg.Nodes = 2
	cfg.CPUKernels = 1
	cfg.GPUs = 1
	cfg.SlotsPerGPU = 1
	job := core.NewJob(cfg)
	rm := job.Ranks()
	srcRank := rm.GPURank(0, 0, 0)
	dstRank := rm.CPURank(1, 0)

	if size == 0 {
		size = 1 // device allocations cannot be empty
	}
	win := make([]byte, size)
	var tStart, tEnd time.Duration

	job.SetCPUKernel(func(c *core.CPUCtx) {
		if c.Rank() != dstRank {
			return
		}
		// Registration happens at t=0, well inside the device kernel
		// launch latency, so no barrier is needed before the put.
		c.RegisterWindow(0, win)
		c.WinWait(0, 1)
		tEnd = c.Now()
	})
	job.SetGPUSetup(func(s *core.GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(size)
	})
	job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
		if g.Rank(0) != srcRank {
			return
		}
		ptr := g.Arg("buf").(device.Ptr)
		g.Block().ChargeTime(warmup)
		tStart = g.Block().Proc().Now()
		g.TriggerPut(0, 0, dstRank, 0, 0, ptr, size)
		g.TriggerFence(0)
	})
	rep, err := job.Run()
	if err != nil {
		return 0, core.Report{}, err
	}
	if tEnd <= tStart {
		return 0, core.Report{}, fmt.Errorf("apps: triggered put never completed (start %v end %v)", tStart, tEnd)
	}
	return tEnd - tStart, rep, nil
}
