package apps

import (
	"fmt"
	"math"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
	"dcgn/internal/gas"
)

// CannonConfig parameterizes Cannon's dense matrix multiplication (§4
// "Simultaneous Communication"): C = A x B on a sqrt(P) x sqrt(P) grid of
// targets, with chunk rotations after every stage.
type CannonConfig struct {
	// N is the matrix dimension; N mod sqrt(P) must be 0.
	N int
	// MatmulEff is the fraction of device peak the multiply kernel
	// achieves (real dense kernels on a G92 reach a fraction of peak).
	MatmulEff float64
	// RealMath actually computes the float32 products (needed for
	// verification; benches at paper scale charge time only). Off, the
	// input matrices are zeros: nothing reads them, and their copies and
	// rotations charge the same time.
	RealMath bool
	Seed     int64
}

// DefaultCannonConfig is the paper's workload: 1024x1024, 4 GPUs.
func DefaultCannonConfig() CannonConfig {
	return CannonConfig{N: 1024, MatmulEff: 0.09, RealMath: false}
}

// matmulTime converts a flop count into whole-device kernel time: the
// single simulated block stands in for a full grid occupying the device.
func (cc CannonConfig) matmulTime(flops, gflopsPeak float64) time.Duration {
	return time.Duration(flops / (gflopsPeak * 1e9 * cc.MatmulEff) * 1e9)
}

// CannonResult reports one run.
type CannonResult struct {
	Elapsed  time.Duration // multiply phase, max across targets
	GFLOPS   float64
	Targets  int
	Verified bool
	// Report is the engine report of the DCGN run (fault/retransmit
	// accounting under lossy-wire configs); zero for GAS/sequential runs.
	Report core.Report
}

// cannonGrid returns sqrt(P), panicking unless P is a perfect square and
// divides N.
func cannonGrid(cc CannonConfig, p int) int {
	q := int(math.Round(math.Sqrt(float64(p))))
	if q*q != p {
		panic(fmt.Sprintf("apps: cannon needs a square target count, got %d", p))
	}
	if cc.N%q != 0 {
		panic(fmt.Sprintf("apps: N=%d not divisible by sqrt(P)=%d", cc.N, q))
	}
	return q
}

// genA and genB produce deterministic matrix entries with bounded products.
func genA(i, j int) float32 { return float32((i*7+j*3)%13) - 6 }
func genB(i, j int) float32 { return float32((i*5+j*11)%17) - 8 }

// cannonInputs returns the source of the pre-skewed initial chunks of one
// run: target (r,c) of a q x q grid gets A chunk (r, (c+r) mod q) and B
// chunk ((r+c) mod q, c), as float32 row-major bytes. Without RealMath no
// kernel reads them, so every target gets one zeroed chunk for both.
func cannonInputs(cc CannonConfig, q int) func(r, c int) (aChunk, bChunk []byte) {
	n := cc.N / q
	if !cc.RealMath {
		zero := make([]byte, 4*n*n)
		return func(int, int) ([]byte, []byte) { return zero, zero }
	}
	return func(r, c int) ([]byte, []byte) {
		a := make([]byte, 4*n*n)
		b := make([]byte, 4*n*n)
		ac := (c + r) % q
		br := (r + c) % q
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				putF32(a[4*(i*n+j):], genA(r*n+i, ac*n+j))
				putF32(b[4*(i*n+j):], genB(br*n+i, c*n+j))
			}
		}
		return a, b
	}
}

// chunkFLOPs is the flop count of one n x n chunk multiply-add.
func chunkFLOPs(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }

// chunkMultiplyAdd performs cChunk += aChunk x bChunk over n x n float32
// chunks. Only a RealMath run calls it: without it no kernel takes the
// chunks' bytes, so C, which nothing copies in, is never backed.
func chunkMultiplyAdd(n int, aChunk, bChunk, cChunk []byte) {
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			av := getF32(aChunk[4*(i*n+k):])
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				cv := getF32(cChunk[4*(i*n+j):])
				putF32(cChunk[4*(i*n+j):], cv+av*getF32(bChunk[4*(k*n+j):]))
			}
		}
	}
}

// cannonVerify checks assembled C chunks against a direct multiply.
func cannonVerify(cc CannonConfig, q int, cChunks map[int][]byte) bool {
	n := cc.N / q
	for t, chunk := range cChunks {
		r, c := t/q, t%q
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var want float32
				for k := 0; k < cc.N; k++ {
					want += genA(r*n+i, k) * genB(k, c*n+j)
				}
				got := getF32(chunk[4*(i*n+j):])
				if math.Abs(float64(got-want)) > 1e-2*math.Max(1, math.Abs(float64(want))) {
					return false
				}
			}
		}
	}
	return true
}

// CannonDCGN runs Cannon's algorithm with every target a GPU slot,
// rotating chunks with the combined SendRecv primitive (§5.1).
func CannonDCGN(cfg core.Config, cc CannonConfig) (CannonResult, error) {
	cfg.CPUKernels = 0
	cfg.SlotsPerGPU = 1
	cfg.JitterSeed = cc.Seed
	targets := cfg.Nodes * cfg.GPUs
	q := cannonGrid(cc, targets)
	n := cc.N / q
	chunkBytes := 4 * n * n
	if cfg.Device.MemBytes < 4*chunkBytes {
		cfg.Device.MemBytes = 8 * chunkBytes
	}

	gflops := cfg.Device.GFLOPS
	job := core.NewJob(cfg)
	rm := job.Ranks()
	rankOfTarget := make([]int, targets)
	targetOfRank := map[int]int{}
	for i := 0; i < targets; i++ {
		rank := rm.GPURank(i/cfg.GPUs, i%cfg.GPUs, 0)
		rankOfTarget[i] = rank
		targetOfRank[rank] = i
	}

	ends := make(map[int]time.Duration)
	var start time.Duration
	cChunks := map[int][]byte{}
	inputs := cannonInputs(cc, q)

	job.SetGPUSetup(func(s *core.GPUSetup) {
		t := targetOfRank[s.Job.Ranks().GPURank(s.Node, s.GPU, 0)]
		r, c := t/q, t%q
		aInit, bInit := inputs(r, c)
		aPtr := s.Dev.Mem().MustAlloc(chunkBytes)
		bPtr := s.Dev.Mem().MustAlloc(chunkBytes)
		cPtr := s.Dev.Mem().MustAlloc(chunkBytes)
		s.Dev.CopyIn(s.Proc, s.Bus, aPtr, aInit)
		s.Dev.CopyIn(s.Proc, s.Bus, bPtr, bInit)
		s.Args["a"], s.Args["b"], s.Args["c"] = aPtr, bPtr, cPtr
		s.Args["target"] = t
	})
	job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
		t := g.Arg("target").(int)
		r, c := t/q, t%q
		aPtr := g.Arg("a").(device.Ptr)
		bPtr := g.Arg("b").(device.Ptr)
		cPtr := g.Arg("c").(device.Ptr)
		left := rankOfTarget[r*q+(c-1+q)%q]
		right := rankOfTarget[r*q+(c+1)%q]
		up := rankOfTarget[((r-1+q)%q)*q+c]
		down := rankOfTarget[((r+1)%q)*q+c]

		g.Barrier(0)
		if t == 0 {
			start = g.Block().Proc().Now()
		}
		for stage := 0; stage < q; stage++ {
			if cc.RealMath {
				b := g.Block()
				chunkMultiplyAdd(n, b.Bytes(aPtr, chunkBytes), b.Bytes(bPtr, chunkBytes), b.Bytes(cPtr, chunkBytes))
			}
			g.Block().ChargeTime(cc.matmulTime(chunkFLOPs(n), gflops))
			if stage == q-1 {
				break
			}
			if _, err := g.SendRecv(0, left, aPtr, chunkBytes, right, aPtr, chunkBytes); err != nil {
				panic(err)
			}
			if _, err := g.SendRecv(0, up, bPtr, chunkBytes, down, bPtr, chunkBytes); err != nil {
				panic(err)
			}
		}
		ends[t] = g.Block().Proc().Now()
	})
	job.SetGPUTeardown(func(s *core.GPUSetup) {
		if !cc.RealMath {
			return
		}
		t := s.Args["target"].(int)
		out := make([]byte, chunkBytes)
		s.Dev.CopyOut(s.Proc, s.Bus, s.Args["c"].(device.Ptr), out)
		cChunks[t] = out
	})
	rep, err := job.Run()
	if err != nil {
		return CannonResult{}, err
	}
	res := cannonResult(cc, q, targets, start, ends, cChunks)
	res.Report = rep
	return res, nil
}

// CannonGAS runs Cannon's algorithm in the GAS model: host ranks own the
// GPUs, split the kernel at every rotation, and shuttle chunks over
// PCIe + MPI SendrecvReplace.
func CannonGAS(cfg gas.Config, cc CannonConfig) (CannonResult, error) {
	cfg.CPUsPerNode = 0
	cfg.JitterSeed = cc.Seed
	targets := cfg.Nodes * cfg.GPUsPerNode
	q := cannonGrid(cc, targets)
	n := cc.N / q
	chunkBytes := 4 * n * n
	if cfg.Device.MemBytes < 4*chunkBytes {
		cfg.Device.MemBytes = 8 * chunkBytes
	}

	gflops := cfg.Device.GFLOPS
	ends := make(map[int]time.Duration)
	var start time.Duration
	cChunks := map[int][]byte{}
	inputs := cannonInputs(cc, q)

	_, err := gas.Run(cfg, func(w *gas.Worker) {
		t := w.Rank.ID()
		r, c := t/q, t%q
		aInit, bInit := inputs(r, c)
		aPtr := w.Dev.Mem().MustAlloc(chunkBytes)
		bPtr := w.Dev.Mem().MustAlloc(chunkBytes)
		cPtr := w.Dev.Mem().MustAlloc(chunkBytes)
		w.CopyIn(aPtr, aInit)
		w.CopyIn(bPtr, bInit)
		left := r*q + (c-1+q)%q
		right := r*q + (c+1)%q
		up := ((r-1+q)%q)*q + c
		down := ((r+1)%q)*q + c

		aHost := make([]byte, chunkBytes)
		bHost := make([]byte, chunkBytes)

		w.Rank.Barrier(w.P)
		if t == 0 {
			start = w.P.Now()
		}
		for stage := 0; stage < q; stage++ {
			w.LaunchSync(1, 8, func(b *device.Block) {
				if cc.RealMath {
					chunkMultiplyAdd(n, b.Bytes(aPtr, chunkBytes), b.Bytes(bPtr, chunkBytes), b.Bytes(cPtr, chunkBytes))
				}
				b.ChargeTime(cc.matmulTime(chunkFLOPs(n), gflops))
			})
			if stage == q-1 {
				break
			}
			// GAS rotation: download, exchange via MPI, upload.
			w.CopyOut(aPtr, aHost)
			if _, err := w.Rank.SendrecvReplace(w.P, aHost, left, 1, right, 1); err != nil {
				panic(err)
			}
			w.CopyIn(aPtr, aHost)
			w.CopyOut(bPtr, bHost)
			if _, err := w.Rank.SendrecvReplace(w.P, bHost, up, 2, down, 2); err != nil {
				panic(err)
			}
			w.CopyIn(bPtr, bHost)
		}
		ends[t] = w.P.Now()
		if cc.RealMath {
			out := make([]byte, chunkBytes)
			w.CopyOut(cPtr, out)
			cChunks[t] = out
		}
	})
	if err != nil {
		return CannonResult{}, err
	}
	return cannonResult(cc, q, targets, start, ends, cChunks), nil
}

// MatmulSingleGPU multiplies the whole matrix on one device (t1).
func MatmulSingleGPU(cfg gas.Config, cc CannonConfig) (CannonResult, error) {
	cfg.Nodes = 1
	cfg.CPUsPerNode = 0
	cfg.GPUsPerNode = 1
	cfg.JitterSeed = cc.Seed
	gflops := cfg.Device.GFLOPS
	var start, end time.Duration
	_, err := gas.Run(cfg, func(w *gas.Worker) {
		start = w.P.Now()
		w.LaunchSync(1, 8, func(b *device.Block) {
			b.ChargeTime(cc.matmulTime(chunkFLOPs(cc.N), gflops))
		})
		end = w.P.Now()
	})
	if err != nil {
		return CannonResult{}, err
	}
	ends := map[int]time.Duration{0: end}
	return cannonResult(cc, 1, 1, start, ends, nil), nil
}

func cannonResult(cc CannonConfig, q, targets int, start time.Duration, ends map[int]time.Duration, cChunks map[int][]byte) CannonResult {
	var last time.Duration
	for _, e := range ends {
		if e > last {
			last = e
		}
	}
	elapsed := last - start
	res := CannonResult{Elapsed: elapsed, Targets: targets}
	if elapsed > 0 {
		res.GFLOPS = chunkFLOPs(cc.N) / elapsed.Seconds() / 1e9
	}
	if cc.RealMath && len(cChunks) == targets {
		res.Verified = cannonVerify(cc, q, cChunks)
	}
	return res
}

func putF32(b []byte, v float32) {
	bits := math.Float32bits(v)
	b[0] = byte(bits)
	b[1] = byte(bits >> 8)
	b[2] = byte(bits >> 16)
	b[3] = byte(bits >> 24)
}

func getF32(b []byte) float32 {
	bits := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return math.Float32frombits(bits)
}
