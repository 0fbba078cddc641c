package apps

import (
	"fmt"
	"math"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
	"dcgn/internal/gas"
)

// NBodyConfig parameterizes the brute-force N-body simulation (§4
// "One-to-All"): every target integrates N/P bodies against all N, then
// broadcasts its updated bodies to the rest.
type NBodyConfig struct {
	Bodies int
	Steps  int
	// FlopsPerInteraction is the cost of one body-body force evaluation
	// (the classic CUDA kernel uses ~20 flops).
	FlopsPerInteraction float64
	// NBodyEff is the fraction of device peak the kernel achieves.
	NBodyEff float64
	// RealMath actually integrates the physics (for verification; paper-
	// scale benches charge time only). Off, the initial bodies are zeros:
	// nothing reads them, and their copies and broadcasts charge the same
	// time.
	RealMath bool
	Seed     int64
}

// DefaultNBodyConfig is the paper's workload shape at its smallest size.
func DefaultNBodyConfig() NBodyConfig {
	return NBodyConfig{
		Bodies:              4096,
		Steps:               4,
		FlopsPerInteraction: 20,
		NBodyEff:            0.12,
		RealMath:            false,
	}
}

// bodyBytes is the wire/device footprint of one body:
// position (3xf32), velocity (3xf32), mass (f32), pad.
const bodyBytes = 32

// NBodyResult reports one run.
type NBodyResult struct {
	Elapsed  time.Duration
	StepTime time.Duration
	Targets  int
	Verified bool
	// Report is the engine report of the DCGN run (fault/retransmit
	// accounting under lossy-wire configs); zero for GAS/sequential runs.
	Report core.Report
}

// nbodyInit produces deterministic initial conditions, or zeros without
// RealMath, when no kernel reads them.
func nbodyInit(nc NBodyConfig) []byte {
	buf := make([]byte, nc.Bodies*bodyBytes)
	if !nc.RealMath {
		return buf
	}
	for i := 0; i < nc.Bodies; i++ {
		b := buf[i*bodyBytes:]
		putF32(b[0:], float32(math.Sin(float64(i)*0.7))*100)
		putF32(b[4:], float32(math.Cos(float64(i)*1.3))*100)
		putF32(b[8:], float32(math.Sin(float64(i)*2.1))*100)
		// velocities start at zero
		putF32(b[24:], 1+float32(i%7)) // mass
	}
	return buf
}

// nbodyStep integrates bodies [lo,hi) of the array against all bodies with
// a softened gravitational force and dt=0.01, writing updated state in
// place. Returns the interaction count.
func nbodyStep(bodies []byte, lo, hi int) float64 {
	n := len(bodies) / bodyBytes
	const dt = 0.01
	const eps2 = 0.5
	type vec struct{ x, y, z float32 }
	acc := make([]vec, hi-lo)
	for i := lo; i < hi; i++ {
		bi := bodies[i*bodyBytes:]
		xi, yi, zi := getF32(bi), getF32(bi[4:]), getF32(bi[8:])
		var ax, ay, az float32
		for j := 0; j < n; j++ {
			bj := bodies[j*bodyBytes:]
			dx := getF32(bj) - xi
			dy := getF32(bj[4:]) - yi
			dz := getF32(bj[8:]) - zi
			d2 := dx*dx + dy*dy + dz*dz + eps2
			inv := float32(1 / math.Sqrt(float64(d2)))
			f := getF32(bj[24:]) * inv * inv * inv
			ax += f * dx
			ay += f * dy
			az += f * dz
		}
		acc[i-lo] = vec{ax, ay, az}
	}
	for i := lo; i < hi; i++ {
		b := bodies[i*bodyBytes:]
		a := acc[i-lo]
		vx := getF32(b[12:]) + a.x*dt
		vy := getF32(b[16:]) + a.y*dt
		vz := getF32(b[20:]) + a.z*dt
		putF32(b[12:], vx)
		putF32(b[16:], vy)
		putF32(b[20:], vz)
		putF32(b[0:], getF32(b[0:])+vx*dt)
		putF32(b[4:], getF32(b[4:])+vy*dt)
		putF32(b[8:], getF32(b[8:])+vz*dt)
	}
	return float64(hi-lo) * float64(n)
}

// charge returns the virtual compute time of `interactions`.
func (nc NBodyConfig) charge(interactions float64, gflopsPeak float64) time.Duration {
	return time.Duration(interactions * nc.FlopsPerInteraction / (gflopsPeak * 1e9 * nc.NBodyEff) * 1e9)
}

// NBodyDCGN runs the simulation with every target a GPU slot; per step,
// each target broadcasts its updated chunk from device memory.
func NBodyDCGN(cfg core.Config, nc NBodyConfig) (NBodyResult, error) {
	cfg.CPUKernels = 0
	cfg.SlotsPerGPU = 1
	cfg.JitterSeed = nc.Seed
	targets := cfg.Nodes * cfg.GPUs
	if nc.Bodies%targets != 0 {
		return NBodyResult{}, fmt.Errorf("apps: bodies %d not divisible by targets %d", nc.Bodies, targets)
	}
	chunk := nc.Bodies / targets
	total := nc.Bodies * bodyBytes
	if cfg.Device.MemBytes < 2*total {
		cfg.Device.MemBytes = 2*total + (1 << 20)
	}
	job := core.NewJob(cfg)
	rm := job.Ranks()
	rankOfTarget := make([]int, targets)
	for i := range rankOfTarget {
		rankOfTarget[i] = rm.GPURank(i/cfg.GPUs, i%cfg.GPUs, 0)
	}
	gflops := cfg.Device.GFLOPS

	var start time.Duration
	ends := map[int]time.Duration{}
	finals := map[int][]byte{}
	init := nbodyInit(nc)

	job.SetGPUSetup(func(s *core.GPUSetup) {
		ptr := s.Dev.Mem().MustAlloc(total)
		s.Dev.CopyIn(s.Proc, s.Bus, ptr, init)
		s.Args["bodies"] = ptr
		s.Args["target"] = s.GPU + s.Node*cfg.GPUs
	})
	job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
		t := g.Arg("target").(int)
		ptr := g.Arg("bodies").(device.Ptr)
		lo, hi := t*chunk, (t+1)*chunk
		g.Barrier(0)
		if t == 0 {
			start = g.Block().Proc().Now()
		}
		for s := 0; s < nc.Steps; s++ {
			var inter float64
			if nc.RealMath {
				inter = nbodyStep(g.Block().Bytes(ptr, total), lo, hi)
			} else {
				inter = float64(chunk) * float64(nc.Bodies)
			}
			g.Block().ChargeTime(nc.charge(inter, gflops))
			// Every target broadcasts its updated chunk (§4).
			for root := 0; root < targets; root++ {
				cPtr := ptr + device.Ptr(root*chunk*bodyBytes)
				if err := g.Bcast(0, rankOfTarget[root], cPtr, chunk*bodyBytes); err != nil {
					panic(err)
				}
			}
		}
		ends[t] = g.Block().Proc().Now()
	})
	job.SetGPUTeardown(func(s *core.GPUSetup) {
		if !nc.RealMath {
			return
		}
		out := make([]byte, total)
		s.Dev.CopyOut(s.Proc, s.Bus, s.Args["bodies"].(device.Ptr), out)
		finals[s.Args["target"].(int)] = out
	})
	rep, err := job.Run()
	if err != nil {
		return NBodyResult{}, err
	}
	res := nbodyResult(nc, targets, start, ends, finals)
	res.Report = rep
	return res, nil
}

// NBodyGAS runs the GAS version: per step, launch the force kernel,
// download the local chunk, broadcast every chunk over MPI, upload the
// refreshed array.
func NBodyGAS(cfg gas.Config, nc NBodyConfig) (NBodyResult, error) {
	cfg.CPUsPerNode = 0
	cfg.JitterSeed = nc.Seed
	targets := cfg.Nodes * cfg.GPUsPerNode
	if nc.Bodies%targets != 0 {
		return NBodyResult{}, fmt.Errorf("apps: bodies %d not divisible by targets %d", nc.Bodies, targets)
	}
	chunk := nc.Bodies / targets
	total := nc.Bodies * bodyBytes
	if cfg.Device.MemBytes < 2*total {
		cfg.Device.MemBytes = 2*total + (1 << 20)
	}
	gflops := cfg.Device.GFLOPS

	var start time.Duration
	ends := map[int]time.Duration{}
	finals := map[int][]byte{}
	init := nbodyInit(nc)

	_, err := gas.Run(cfg, func(w *gas.Worker) {
		t := w.Rank.ID()
		lo, hi := t*chunk, (t+1)*chunk
		ptr := w.Dev.Mem().MustAlloc(total)
		w.CopyIn(ptr, init)
		host := make([]byte, total) // every segment is refilled before its upload

		w.Rank.Barrier(w.P)
		if t == 0 {
			start = w.P.Now()
		}
		for s := 0; s < nc.Steps; s++ {
			w.LaunchSync(1, 8, func(b *device.Block) {
				var inter float64
				if nc.RealMath {
					inter = nbodyStep(b.Bytes(ptr, total), lo, hi)
				} else {
					inter = float64(chunk) * float64(nc.Bodies)
				}
				b.ChargeTime(nc.charge(inter, gflops))
			})
			// Download my chunk, broadcast all chunks, upload the rest.
			w.CopyOut(ptr+device.Ptr(lo*bodyBytes), host[lo*bodyBytes:hi*bodyBytes])
			for root := 0; root < targets; root++ {
				seg := host[root*chunk*bodyBytes : (root+1)*chunk*bodyBytes]
				if err := w.Rank.Bcast(w.P, seg, root); err != nil {
					panic(err)
				}
			}
			w.CopyIn(ptr, host)
		}
		ends[t] = w.P.Now()
		if nc.RealMath {
			out := make([]byte, total)
			w.CopyOut(ptr, out)
			finals[t] = out
		}
	})
	if err != nil {
		return NBodyResult{}, err
	}
	return nbodyResult(nc, targets, start, ends, finals), nil
}

// NBodySingleGPU integrates all bodies on one device (t1).
func NBodySingleGPU(cfg gas.Config, nc NBodyConfig) (NBodyResult, error) {
	cfg.Nodes = 1
	cfg.CPUsPerNode = 0
	cfg.GPUsPerNode = 1
	cfg.JitterSeed = nc.Seed
	total := nc.Bodies * bodyBytes
	if cfg.Device.MemBytes < 2*total {
		cfg.Device.MemBytes = 2*total + (1 << 20)
	}
	gflops := cfg.Device.GFLOPS
	var start, end time.Duration
	_, err := gas.Run(cfg, func(w *gas.Worker) {
		ptr := w.Dev.Mem().MustAlloc(total)
		w.CopyIn(ptr, nbodyInit(nc))
		start = w.P.Now()
		for s := 0; s < nc.Steps; s++ {
			w.LaunchSync(1, 8, func(b *device.Block) {
				var inter float64
				if nc.RealMath {
					inter = nbodyStep(b.Bytes(ptr, total), 0, nc.Bodies)
				} else {
					inter = float64(nc.Bodies) * float64(nc.Bodies)
				}
				b.ChargeTime(nc.charge(inter, gflops))
			})
		}
		end = w.P.Now()
	})
	if err != nil {
		return NBodyResult{}, err
	}
	return nbodyResult(nc, 1, start, map[int]time.Duration{0: end}, nil), nil
}

// nbodyResult assembles the report and (with RealMath) verifies every
// target's final state against the sequential reference.
func nbodyResult(nc NBodyConfig, targets int, start time.Duration, ends map[int]time.Duration, finals map[int][]byte) NBodyResult {
	var last time.Duration
	for _, e := range ends {
		if e > last {
			last = e
		}
	}
	res := NBodyResult{Elapsed: last - start, Targets: targets}
	if nc.Steps > 0 {
		res.StepTime = res.Elapsed / time.Duration(nc.Steps)
	}
	if nc.RealMath && len(finals) == targets {
		ref := nbodyInit(nc)
		for s := 0; s < nc.Steps; s++ {
			nbodyStep(ref, 0, nc.Bodies)
		}
		res.Verified = true
		for _, got := range finals {
			for i := 0; i < len(ref); i += 4 {
				a := getF32(ref[i:])
				b := getF32(got[i:])
				if math.Abs(float64(a-b)) > 1e-3*math.Max(1, math.Abs(float64(a))) {
					res.Verified = false
				}
			}
		}
	}
	return res
}
