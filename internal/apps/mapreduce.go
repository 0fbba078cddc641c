package apps

import (
	"encoding/binary"
	"fmt"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
)

// MapReduceConfig parameterizes the paper's §3.1 motivating example: a
// parallel map-reduce where "billions of elements need to be reduced".
// With uniform element costs one slot per DPM is ideal ("communication
// costs are reduced"); with a tiny fraction of elements costing orders of
// magnitude more, "a single element can delay an entire DPM from
// communicating results" and extra slots pay off.
type MapReduceConfig struct {
	// Elements is the total input size.
	Elements int
	// Batch is how many elements a worker receives per request.
	Batch int
	// BaseCost is the device time to map one ordinary element.
	BaseCost time.Duration
	// SlowEvery makes every k-th element cost SlowFactor times more
	// (0 disables the heavy tail — the paper's first scenario).
	SlowEvery  int
	SlowFactor int
	// Slots per GPU (the knob §3.1 is about).
	Slots int
	Seed  int64
}

// DefaultMapReduceConfig returns a workload shaped like §3.1's second
// scenario at bench-friendly scale.
func DefaultMapReduceConfig(slots int) MapReduceConfig {
	return MapReduceConfig{
		Elements:   4096,
		Batch:      64,
		BaseCost:   2 * time.Microsecond,
		SlowEvery:  512,
		SlowFactor: 200,
		Slots:      slots,
	}
}

// MapReduceResult reports one run.
type MapReduceResult struct {
	Elapsed  time.Duration
	Sum      int64
	Verified bool
}

// mrElement returns element i's value; the map function squares it.
func mrElement(i int) int64 { return int64(i%97) - 48 }

func mrMapped(i int) int64 { v := mrElement(i); return v * v }

// mrCost returns the device time to map element i.
func (mr MapReduceConfig) mrCost(i int) time.Duration {
	if mr.SlowEvery > 0 && i%mr.SlowEvery == mr.SlowEvery-1 {
		return mr.BaseCost * time.Duration(mr.SlowFactor)
	}
	return mr.BaseCost
}

// batchTime models mapping one batch on smsUsed multiprocessors: uniform
// elements spread across the SMs; a heavy-tail element serializes (§3.1:
// "virtually every thread is left idle while the time-intensive element is
// being processed").
func (mr MapReduceConfig) batchTime(start, count, smsUsed int) time.Duration {
	if smsUsed < 1 {
		smsUsed = 1
	}
	var uniform, tail time.Duration
	for i := start; i < start+count; i++ {
		uniform += mr.BaseCost
		if extra := mr.mrCost(i) - mr.BaseCost; extra > tail {
			tail = extra
		}
	}
	return uniform/time.Duration(smsUsed) + tail
}

// mapReduceReference computes the expected reduction sequentially.
func mapReduceReference(mr MapReduceConfig) int64 {
	var sum int64
	for i := 0; i < mr.Elements; i++ {
		sum += mrMapped(i)
	}
	return sum
}

// Work-queue protocol: workers send an 8-byte request; the master replies
// with {start, count} (count 0 = done); workers send back {partialSum}.
const mrReqBytes = 8

// MapReduceDCGN runs the map-reduce on one CPU master plus the cluster's
// GPUs, each virtualized into mr.Slots communication targets driving
// their own persistent block.
func MapReduceDCGN(cfg core.Config, mr MapReduceConfig) (MapReduceResult, error) {
	if mr.Slots < 1 || mr.Batch < 1 {
		return MapReduceResult{}, fmt.Errorf("apps: bad mapreduce config")
	}
	cfg.CPUKernels = 1
	cfg.SlotsPerGPU = mr.Slots
	cfg.JitterSeed = mr.Seed
	if cfg.Device.SMs < mr.Slots {
		cfg.Device.SMs = mr.Slots
	}
	// Each slot's persistent block group owns an equal share of the device.
	smsPerSlot := cfg.Device.SMs / mr.Slots
	job := core.NewJob(cfg)
	rm := job.Ranks()
	workers := 0
	for n := 0; n < rm.Nodes(); n++ {
		workers += rm.Spec(n).GPUs * rm.Spec(n).SlotsPerGPU
	}

	var sum int64
	job.SetCPUKernel(func(c *core.CPUCtx) {
		if c.Rank() != 0 {
			return
		}
		next, terms := 0, 0
		buf := make([]byte, 16)
		for terms < workers {
			st, err := c.Recv(core.AnySource, buf)
			if err != nil {
				panic(err)
			}
			if st.Bytes == mrReqBytes {
				reply := make([]byte, 16)
				if next < mr.Elements {
					count := min(mr.Batch, mr.Elements-next)
					binary.LittleEndian.PutUint64(reply[0:], uint64(next))
					binary.LittleEndian.PutUint64(reply[8:], uint64(count))
					next += count
				} else {
					terms++ // zero count = done
				}
				if err := c.Send(st.Source, reply); err != nil {
					panic(err)
				}
				continue
			}
			sum += int64(binary.LittleEndian.Uint64(buf))
		}
	})
	job.SetGPUSetup(func(s *core.GPUSetup) {
		slots := s.Job.Ranks().Spec(s.Node).SlotsPerGPU
		s.Args["mem"] = s.Dev.Mem().MustAlloc(slots * 16)
	})
	job.SetGPUKernel(mr.Slots, 8, func(g *core.GPUCtx) {
		slot := g.Block().Idx
		if slot >= g.Slots() {
			return
		}
		ptr := g.Arg("mem").(device.Ptr) + device.Ptr(slot*16)
		for {
			if err := g.Send(slot, 0, ptr, mrReqBytes); err != nil {
				panic(err)
			}
			if _, err := g.Recv(slot, 0, ptr, 16); err != nil {
				panic(err)
			}
			mb := g.Block().Bytes(ptr, 16)
			start := int(binary.LittleEndian.Uint64(mb[0:]))
			count := int(binary.LittleEndian.Uint64(mb[8:]))
			if count == 0 {
				return
			}
			var partial int64
			for i := start; i < start+count; i++ {
				partial += mrMapped(i)
			}
			g.Block().ChargeTime(mr.batchTime(start, count, smsPerSlot))
			binary.LittleEndian.PutUint64(mb, uint64(partial))
			if err := g.Send(slot, 0, ptr, 16); err != nil {
				panic(err)
			}
		}
	})
	rep, err := job.Run()
	if err != nil {
		return MapReduceResult{}, err
	}
	return MapReduceResult{
		Elapsed:  rep.Elapsed,
		Sum:      sum,
		Verified: sum == mapReduceReference(mr),
	}, nil
}
