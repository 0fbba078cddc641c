package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
	"dcgn/internal/gas"
	"dcgn/internal/mpi"
)

// PipelineConfig parameterizes the §2.3 comparison: the paper's second
// GAS method "divid[es] the task domain into N parts and then connect[s]
// those N parts into a pipeline... this method does not extend well to
// problems poorly suited to pipelining." A stream of frames passes through
// Stages transforms; stage costs are uniform or data-dependent (skewed).
//
// The GAS implementation statically binds one GPU per stage; the DCGN
// implementation uses a dynamic work queue where any GPU performs any
// ready (frame, stage) task — the fully dynamic communication the paper
// argues for.
type PipelineConfig struct {
	Frames     int
	Stages     int // must equal the GPU count of the cluster
	FrameBytes int
	// BaseCost is the device time of one uniform stage application.
	BaseCost time.Duration
	// SkewEvery makes stage processing of every k-th (frame, stage) pair
	// cost SkewFactor times more (0 = uniform, pipeline-friendly).
	SkewEvery  int
	SkewFactor int
	Seed       int64
}

// DefaultPipelineConfig returns a bench-scale workload.
func DefaultPipelineConfig(skewed bool) PipelineConfig {
	pc := PipelineConfig{
		Frames:     48,
		Stages:     4,
		FrameBytes: 4096,
		BaseCost:   150 * time.Microsecond,
	}
	if skewed {
		pc.SkewEvery = 7
		pc.SkewFactor = 12
	}
	return pc
}

// PipelineResult reports one run.
type PipelineResult struct {
	Elapsed  time.Duration
	Verified bool
}

// stageTransform applies stage s to a frame in place (verifiable math).
func stageTransform(s int, data []byte) {
	for i := range data {
		data[i] = data[i]*3 + byte(s) + byte(i%5)
	}
}

// stageCost returns the device time of applying stage s to frame f.
func (pc PipelineConfig) stageCost(f, s int) time.Duration {
	if pc.SkewEvery > 0 && (f*pc.Stages+s)%pc.SkewEvery == pc.SkewEvery-1 {
		return pc.BaseCost * time.Duration(pc.SkewFactor)
	}
	return pc.BaseCost
}

// pipelineFrame returns frame f's initial contents.
func pipelineFrame(pc PipelineConfig, f int) []byte {
	b := make([]byte, pc.FrameBytes)
	for i := range b {
		b[i] = byte(f + i)
	}
	return b
}

// pipelineVerify checks collected final frames against every stage applied
// sequentially.
func pipelineVerify(pc PipelineConfig, frames map[int][]byte) bool {
	if len(frames) != pc.Frames {
		return false
	}
	for f, data := range frames {
		want := pipelineFrame(pc, f)
		for s := 0; s < pc.Stages; s++ {
			stageTransform(s, want)
		}
		if !bytes.Equal(data, want) {
			return false
		}
	}
	return true
}

// PipelineGAS runs the static pipeline: GPU-owning rank 1+s executes stage
// s for every frame; frames flow along the chain via MPI, with the usual
// GAS kernel splits and PCIe copies at every hop. Rank 0 (CPU) feeds the
// first stage and collects from the last.
func PipelineGAS(cfg gas.Config, pc PipelineConfig) (PipelineResult, error) {
	if cfg.Nodes*cfg.GPUsPerNode != pc.Stages {
		return PipelineResult{}, fmt.Errorf("apps: pipeline needs exactly %d GPUs", pc.Stages)
	}
	cfg.CPUsPerNode = 1
	cfg.JitterSeed = pc.Seed
	perNode := cfg.CPUsPerNode + cfg.GPUsPerNode

	// Stage s is handled by the s-th GPU rank in rank order.
	stageRank := make([]int, 0, pc.Stages)
	for n := 0; n < cfg.Nodes; n++ {
		for g := 0; g < cfg.GPUsPerNode; g++ {
			stageRank = append(stageRank, n*perNode+cfg.CPUsPerNode+g)
		}
	}
	stageOf := map[int]int{}
	for s, r := range stageRank {
		stageOf[r] = s
	}

	finals := map[int][]byte{}
	msgLen := 4 + pc.FrameBytes
	rep, err := gas.Run(cfg, func(w *gas.Worker) {
		switch {
		case w.Rank.ID() == 0:
			// Feed every frame into stage 0, then collect from the last
			// stage. Nonblocking feeds so collection can interleave.
			var reqs []*mpi.Request
			for f := 0; f < pc.Frames; f++ {
				msg := make([]byte, msgLen)
				binary.LittleEndian.PutUint32(msg, uint32(f))
				copy(msg[4:], pipelineFrame(pc, f))
				reqs = append(reqs, w.Rank.Isend(w.P, msg, stageRank[0], 0))
			}
			buf := make([]byte, msgLen)
			for i := 0; i < pc.Frames; i++ {
				if _, err := w.Rank.Recv(w.P, buf, stageRank[pc.Stages-1], 0); err != nil {
					panic(err)
				}
				f := int(binary.LittleEndian.Uint32(buf))
				finals[f] = append([]byte(nil), buf[4:]...)
			}
			mpi.WaitAll(w.P, reqs...)
		case w.IsGPU():
			s := stageOf[w.Rank.ID()]
			prev := 0
			if s > 0 {
				prev = stageRank[s-1]
			}
			next := 0
			if s < pc.Stages-1 {
				next = stageRank[s+1]
			}
			ptr := w.Dev.Mem().MustAlloc(pc.FrameBytes)
			buf := make([]byte, msgLen)
			for i := 0; i < pc.Frames; i++ {
				if _, err := w.Rank.Recv(w.P, buf, prev, 0); err != nil {
					panic(err)
				}
				f := int(binary.LittleEndian.Uint32(buf))
				w.CopyIn(ptr, buf[4:])
				w.LaunchSync(1, 8, func(b *device.Block) {
					stageTransform(s, b.Bytes(ptr, pc.FrameBytes))
					b.ChargeTime(pc.stageCost(f, s))
				})
				w.CopyOut(ptr, buf[4:])
				if err := w.Rank.Send(w.P, buf, next, 0); err != nil {
					panic(err)
				}
			}
		}
	})
	if err != nil {
		return PipelineResult{}, err
	}
	return PipelineResult{Elapsed: rep.Elapsed, Verified: pipelineVerify(pc, finals)}, nil
}

// PipelineDCGN runs the dynamic version: a CPU master tracks each frame's
// next stage and hands ready (frame, stage) tasks to ANY requesting GPU
// slot; frame data travels with the task. Load imbalance from skewed
// stage costs is absorbed by the work queue — the fully dynamic
// communication DCGN exists to provide.
func PipelineDCGN(cfg core.Config, pc PipelineConfig) (PipelineResult, error) {
	cfg.CPUKernels = 1
	cfg.SlotsPerGPU = 1
	cfg.JitterSeed = pc.Seed
	job := core.NewJob(cfg)
	rm := job.Ranks()
	workers := 0
	for n := 0; n < rm.Nodes(); n++ {
		workers += rm.Spec(n).GPUs
	}

	msgLen := 8 + pc.FrameBytes // frame, stage, payload
	finals := map[int][]byte{}

	job.SetCPUKernel(func(c *core.CPUCtx) {
		if c.Rank() != 0 {
			return
		}
		// ready holds frames whose next stage may run.
		type task struct{ frame, stage int }
		var ready []task
		frameData := map[int][]byte{}
		for f := 0; f < pc.Frames; f++ {
			ready = append(ready, task{f, 0})
			frameData[f] = pipelineFrame(pc, f)
		}
		done, terms := 0, 0
		buf := make([]byte, msgLen)
		// Every inbound message — plain work request or completed task —
		// receives exactly one reply: a task grant, a stall, or a
		// termination marker.
		for done < pc.Frames || terms < workers {
			st, err := c.Recv(core.AnySource, buf)
			if err != nil {
				panic(err)
			}
			if st.Bytes > 8 {
				// Completed task returning frame data.
				f := int(binary.LittleEndian.Uint32(buf[0:]))
				s := int(binary.LittleEndian.Uint32(buf[4:]))
				frameData[f] = append([]byte(nil), buf[8:8+pc.FrameBytes]...)
				if s+1 < pc.Stages {
					ready = append(ready, task{f, s + 1})
				} else {
					finals[f] = frameData[f]
					done++
				}
			}
			reply := make([]byte, msgLen)
			switch {
			case len(ready) > 0:
				tk := ready[0]
				ready = ready[1:]
				binary.LittleEndian.PutUint32(reply[0:], uint32(tk.frame))
				binary.LittleEndian.PutUint32(reply[4:], uint32(tk.stage))
				copy(reply[8:], frameData[tk.frame])
				if err := c.Send(st.Source, reply); err != nil {
					panic(err)
				}
			case done == pc.Frames:
				binary.LittleEndian.PutUint32(reply[0:], ^uint32(0))
				if err := c.Send(st.Source, reply[:8]); err != nil {
					panic(err)
				}
				terms++
			default:
				binary.LittleEndian.PutUint32(reply[0:], ^uint32(0)-1)
				if err := c.Send(st.Source, reply[:8]); err != nil {
					panic(err)
				}
			}
		}
	})
	job.SetGPUSetup(func(s *core.GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(msgLen)
	})
	job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
		ptr := g.Arg("buf").(device.Ptr)
		const retryBackoff = 80 * time.Microsecond
		// One outbound message (request or completed task) earns exactly
		// one reply (grant, stall or termination).
		sendLen := 8
		for {
			if err := g.Send(0, 0, ptr, sendLen); err != nil {
				panic(err)
			}
			if _, err := g.Recv(0, 0, ptr, msgLen); err != nil {
				panic(err)
			}
			mb := g.Block().Bytes(ptr, msgLen)
			f := binary.LittleEndian.Uint32(mb[0:])
			if f == ^uint32(0) {
				return // done
			}
			if f == ^uint32(0)-1 {
				g.Block().ChargeTime(retryBackoff)
				sendLen = 8 // plain re-request after a stall
				continue
			}
			s := int(binary.LittleEndian.Uint32(mb[4:]))
			stageTransform(s, mb[8:8+pc.FrameBytes])
			g.Block().ChargeTime(pc.stageCost(int(f), s))
			sendLen = msgLen // the completed task doubles as the next request
		}
	})
	rep, err := job.Run()
	if err != nil {
		return PipelineResult{}, err
	}
	return PipelineResult{Elapsed: rep.Elapsed, Verified: pipelineVerify(pc, finals)}, nil
}
