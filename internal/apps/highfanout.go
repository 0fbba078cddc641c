package apps

import (
	"fmt"

	"dcgn/internal/core"
)

// HighFanout is the ROADMAP-scale matching stress workload: one sink rank
// posts inflight nonblocking receives up front while `sources` local CPU
// ranks blast 8-byte messages at it, holding the node's pending population
// at the in-flight count. It is the canonical stressor for the comm
// thread's matching index and for per-message allocation overhead; the
// bench harness, its allocation budget and the golden determinism test all
// run it through this function so they measure the same thing.
func HighFanout(cfg core.Config, sources, inflight int) (core.Report, error) {
	if inflight%sources != 0 {
		return core.Report{}, fmt.Errorf("apps: inflight %d not divisible by %d sources", inflight, sources)
	}
	msgs := inflight / sources
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = 1, sources+1, 0
	cfg.SlotsPerGPU = 0
	job := core.NewJob(cfg)
	var kernErr error
	job.SetCPUKernel(func(c *core.CPUCtx) {
		if c.Rank() == 0 {
			ops := make([]*core.AsyncOp, 0, sources*msgs)
			for m := 0; m < msgs; m++ {
				for s := 1; s <= sources; s++ {
					ops = append(ops, c.IRecv(s, make([]byte, 8)))
				}
			}
			for _, op := range ops {
				if _, err := op.Wait(c); err != nil && kernErr == nil {
					kernErr = err
				}
			}
		} else {
			buf := make([]byte, 8)
			for m := 0; m < msgs; m++ {
				if err := c.Send(0, buf); err != nil && kernErr == nil {
					kernErr = err
				}
			}
		}
		c.Barrier()
	})
	rep, err := job.Run()
	if err == nil {
		err = kernErr
	}
	return rep, err
}
