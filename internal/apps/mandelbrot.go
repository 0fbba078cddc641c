package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
	"dcgn/internal/gas"
)

// MandelConfig parameterizes the Mandelbrot work-queue application (§4
// "Unpredictable Communication"): an iterative per-pixel fractal where the
// master (target 0) hands out horizontal strips to GPU workers on demand.
type MandelConfig struct {
	Width, Height int
	MaxIter       int
	// StripRows is the height of one work unit.
	StripRows int
	// NsPerIter is the effective device time per pixel iteration
	// (nanoseconds); it folds achieved occupancy into one constant.
	NsPerIter float64
	// MasterOverhead is the master's per-message bookkeeping cost (work
	// queue management and image assembly), identical for DCGN and GAS.
	MasterOverhead time.Duration
	// JitterFrac/Seed perturb timing; two different seeds reproduce
	// Fig. 5's run-to-run strip-distribution variation.
	JitterFrac float64
	Seed       int64
}

// DefaultMandelConfig is the calibrated paper-scale workload.
func DefaultMandelConfig() MandelConfig {
	return MandelConfig{
		Width:          1024,
		Height:         1024,
		MaxIter:        256,
		StripRows:      8,
		NsPerIter:      3.4,
		MasterOverhead: 200 * time.Microsecond,
	}
}

// MandelResult reports one Mandelbrot run.
type MandelResult struct {
	Elapsed      time.Duration
	Workers      int
	Pixels       int
	PixelsPerSec float64
	// StripOwner maps strip index -> worker index (Fig. 5's coloring).
	StripOwner []int
	// Image holds per-pixel iteration counts, row-major.
	Image []uint16
	// Report is the engine report of the DCGN run (fault/retransmit
	// accounting under lossy-wire configs); zero for GAS/sequential runs.
	Report core.Report
}

// mandelStrip computes iteration counts for rows [y0, y0+rows) into out, a
// little-endian uint16 per pixel as the device strip and the wire carry
// them, and returns the total iteration count (the compute cost driver).
// It produces exactly the counts and total of the plain escape loop
// (TestMandelStripExact) while iterating less:
//   - A pixel strictly inside the main cardioid or the period-2 bulb never
//     escapes (its orbit is drawn to an attracting fixed point or 2-cycle
//     well inside the escape radius), so it gets MaxIter without iterating.
//   - A row whose cy is the bit-exact negation of a row this call already
//     computed copies that row: negating cy negates every zy the escape
//     loop computes and changes nothing else, bit for bit (float rounding
//     is symmetric in sign), so each pixel escapes at the same iteration.
//     On a whole image whose dy is exact (the default 1024 rows) that is
//     every row on one side of the real axis.
func mandelStrip(mc MandelConfig, y0, rows int, out []byte) int64 {
	const yMin, yMax = -1.25, 1.25
	dy := (yMax - yMin) / float64(mc.Height)
	w := 2 * mc.Width
	var total int64
	for r := 0; r < rows; r++ {
		cy := yMin + float64(y0+r)*dy
		row := out[r*w : (r+1)*w]
		if m := mc.Height - 2*y0 - r; m >= 0 && m < r &&
			math.Float64bits(yMin+float64(y0+m)*dy) == math.Float64bits(-cy) {
			copy(row, out[m*w:(m+1)*w])
			for i := 0; i < len(row); i += 2 {
				total += int64(binary.LittleEndian.Uint16(row[i:])) + 1
			}
			continue
		}
		total += mandelRow(mc, cy, row)
	}
	return total
}

// mandelRow computes one row of counts at cy and returns its iteration
// total. The pixels that must iterate are taken two at a time and their
// orbits advanced in one loop, so the two latency-bound multiply-add
// chains overlap; an odd one out iterates alone.
func mandelRow(mc MandelConfig, cy float64, row []byte) int64 {
	const xMin, xMax = -2.5, 1.0
	dx := (xMax - xMin) / float64(mc.Width)
	y2 := cy * cy
	var total int64
	put := func(i, iter int) {
		binary.LittleEndian.PutUint16(row[2*i:], uint16(iter))
		total += int64(iter) + 1
	}
	held := -1 // a pixel waiting for a second orbit
	for i := 0; i < mc.Width; i++ {
		cx := xMin + float64(i)*dx
		xq := cx - 0.25
		q := xq*xq + y2
		switch {
		case q*(q+xq) < y2/4 || (cx+1)*(cx+1)+y2 < 1.0/16:
			put(i, mc.MaxIter)
		case held < 0:
			held = i
		default:
			a, b := escape2(xMin+float64(held)*dx, cx, cy, mc.MaxIter)
			put(held, a)
			put(i, b)
			held = -1
		}
	}
	if held >= 0 {
		put(held, escape(xMin+float64(held)*dx, cy, 0, 0, 0, mc.MaxIter))
	}
	return total
}

// escape continues the orbit of c = (cx, cy) from z = (zx, zy) at
// iteration it and returns the iteration at which |z| exceeds 2, or
// maxIter.
func escape(cx, cy, zx, zy float64, it, maxIter int) int {
	for ; it < maxIter; it++ {
		zx2, zy2 := zx*zx, zy*zy
		if zx2+zy2 > 4 {
			break
		}
		zx, zy = zx2-zy2+cx, 2*zx*zy+cy
	}
	return it
}

// escape2 runs the orbits of (ca, cy) and (cb, cy) side by side until one
// escapes, then lets escape finish each from there: the same operations
// in the same order per orbit as escape alone, so the same counts.
func escape2(ca, cb, cy float64, maxIter int) (int, int) {
	var ax, ay, bx, by float64
	it := 0
	for ; it < maxIter; it++ {
		ax2, ay2 := ax*ax, ay*ay
		bx2, by2 := bx*bx, by*by
		if ax2+ay2 > 4 || bx2+by2 > 4 {
			break
		}
		ax, ay = ax2-ay2+ca, 2*ax*ay+cy
		bx, by = bx2-by2+cb, 2*bx*by+cy
	}
	return escape(ca, cy, ax, ay, it, maxIter), escape(cb, cy, bx, by, it, maxIter)
}

// decodeCounts unpacks little-endian iteration counts into dst.
func decodeCounts(dst []uint16, src []byte) {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint16(src[2*i:])
	}
}

// MandelReference computes the full image sequentially (for verification).
func MandelReference(mc MandelConfig) []uint16 {
	buf := make([]byte, 2*mc.Width*mc.Height)
	mandelStrip(mc, 0, mc.Height, buf)
	img := make([]uint16, mc.Width*mc.Height)
	decodeCounts(img, buf)
	return img
}

// Strip protocol message layout. Requests and replies are 4 bytes; results
// are 4 bytes of strip index followed by the pixel data.
const (
	mandelReqBytes = 4
	stripDone      = -1
)

func (mc MandelConfig) strips() int    { return (mc.Height + mc.StripRows - 1) / mc.StripRows }
func (mc MandelConfig) stripPix() int  { return mc.Width * mc.StripRows }
func (mc MandelConfig) resultLen() int { return 4 + 2*mc.stripPix() }

// masterLoop runs the shared master logic over abstract send/recv
// functions, so the DCGN and GAS masters are literally the same code.
// recv returns (payload, sourceRank); send delivers to a rank.
func mandelMaster(mc MandelConfig, workers []int,
	recv func(buf []byte) (int, int), send func(dst int, data []byte),
	overhead func(time.Duration)) ([]int, []uint16) {

	strips := mc.strips()
	img := make([]uint16, mc.Width*mc.Height)
	owner := make([]int, strips)
	for i := range owner {
		owner[i] = -1
	}
	workerIdx := make(map[int]int, len(workers))
	for i, w := range workers {
		workerIdx[w] = i
	}
	next := 0
	returned := 0
	terminated := 0
	buf := make([]byte, mc.resultLen())
	reply := make([]byte, 4)
	for returned < strips || terminated < len(workers) {
		n, src := recv(buf)
		overhead(mc.MasterOverhead)
		if n == mandelReqBytes {
			// Work request.
			if next < strips {
				binary.LittleEndian.PutUint32(reply, uint32(next))
				owner[next] = workerIdx[src]
				next++
			} else {
				done := int32(stripDone)
				binary.LittleEndian.PutUint32(reply, uint32(done))
				terminated++
			}
			send(src, reply)
			continue
		}
		// Strip result.
		strip := int(int32(binary.LittleEndian.Uint32(buf)))
		y0 := strip * mc.StripRows
		rows := min(mc.StripRows, mc.Height-y0)
		decodeCounts(img[y0*mc.Width:(y0+rows)*mc.Width], buf[4:])
		returned++
	}
	return owner, img
}

// mandelWorkerCompute fills the device strip buffer with real iteration
// counts and returns the virtual compute time.
func mandelWorkerCompute(mc MandelConfig, strip int, dst []byte) time.Duration {
	y0 := strip * mc.StripRows
	rows := min(mc.StripRows, mc.Height-y0)
	binary.LittleEndian.PutUint32(dst, uint32(strip))
	iters := mandelStrip(mc, y0, rows, dst[4:])
	return time.Duration(float64(iters) * mc.NsPerIter)
}

// MandelbrotDCGN runs the DCGN implementation: a CPU master (rank 0) and
// every GPU slot as a worker, with fully dynamic device-sourced
// communication.
func MandelbrotDCGN(cfg core.Config, mc MandelConfig) (MandelResult, error) {
	if cfg.CPUKernels < 1 || cfg.GPUs < 1 {
		return MandelResult{}, fmt.Errorf("apps: mandelbrot needs >=1 CPU kernel and >=1 GPU per node")
	}
	cfg.SlotsPerGPU = 1
	cfg.JitterFrac = mc.JitterFrac
	cfg.JitterSeed = mc.Seed
	job := core.NewJob(cfg)
	rm := job.Ranks()

	var workers []int
	for n := 0; n < cfg.Nodes; n++ {
		for g := 0; g < cfg.GPUs; g++ {
			workers = append(workers, rm.GPURank(n, g, 0))
		}
	}

	var owner []int
	var img []uint16
	job.SetCPUKernel(func(c *core.CPUCtx) {
		if c.Rank() != 0 {
			return // other CPU-kernel threads idle, as in the paper's runs
		}
		owner, img = mandelMaster(mc, workers,
			func(buf []byte) (int, int) {
				st, err := c.Recv(core.AnySource, buf)
				if err != nil {
					panic(err)
				}
				return st.Bytes, st.Source
			},
			func(dst int, data []byte) {
				if err := c.Send(dst, data); err != nil {
					panic(err)
				}
			},
			c.Compute)
	})
	job.SetGPUSetup(func(s *core.GPUSetup) {
		s.Args["req"] = s.Dev.Mem().MustAlloc(mandelReqBytes)
		s.Args["reply"] = s.Dev.Mem().MustAlloc(4)
		s.Args["strip"] = s.Dev.Mem().MustAlloc(mc.resultLen())
	})
	job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
		req := g.Arg("req").(device.Ptr)
		reply := g.Arg("reply").(device.Ptr)
		stripPtr := g.Arg("strip").(device.Ptr)
		for {
			if err := g.Send(0, 0, req, mandelReqBytes); err != nil {
				panic(err)
			}
			if _, err := g.Recv(0, 0, reply, 4); err != nil {
				panic(err)
			}
			strip := int(int32(binary.LittleEndian.Uint32(g.Block().Bytes(reply, 4))))
			if strip == stripDone {
				return
			}
			cost := mandelWorkerCompute(mc, strip, g.Block().Bytes(stripPtr, mc.resultLen()))
			g.Block().ChargeTime(cost)
			if err := g.Send(0, 0, stripPtr, mc.resultLen()); err != nil {
				panic(err)
			}
		}
	})
	rep, err := job.Run()
	if err != nil {
		return MandelResult{}, err
	}
	res := mandelResult(mc, rep.Elapsed, len(workers), owner, img)
	res.Report = rep
	return res, nil
}

// MandelbrotGAS runs the GAS+MPI implementation: the same master protocol,
// but workers are host CPU ranks that drive their GPUs as slaves (launch
// kernel per strip, explicit copies).
func MandelbrotGAS(cfg gas.Config, mc MandelConfig) (MandelResult, error) {
	if cfg.CPUsPerNode < 1 || cfg.GPUsPerNode < 1 {
		return MandelResult{}, fmt.Errorf("apps: mandelbrot needs >=1 CPU and >=1 GPU per node")
	}
	cfg.JitterFrac = mc.JitterFrac
	cfg.JitterSeed = mc.Seed
	perNode := cfg.CPUsPerNode + cfg.GPUsPerNode
	var workers []int
	for n := 0; n < cfg.Nodes; n++ {
		for g := 0; g < cfg.GPUsPerNode; g++ {
			workers = append(workers, n*perNode+cfg.CPUsPerNode+g)
		}
	}

	var owner []int
	var img []uint16
	rep, err := gas.Run(cfg, func(w *gas.Worker) {
		switch {
		case w.Rank.ID() == 0:
			owner, img = mandelMaster(mc, workers,
				func(buf []byte) (int, int) {
					st, err := w.Rank.Recv(w.P, buf, -1, 0)
					if err != nil {
						panic(err)
					}
					return st.Count, st.Source
				},
				func(dst int, data []byte) {
					if err := w.Rank.Send(w.P, data, dst, 0); err != nil {
						panic(err)
					}
				},
				w.Compute)
		case w.IsGPU():
			stripPtr := w.Dev.Mem().MustAlloc(mc.resultLen())
			host := make([]byte, mc.resultLen())
			reply := make([]byte, 4)
			req := make([]byte, mandelReqBytes)
			for {
				w.Rank.Send(w.P, req, 0, 0)
				w.Rank.Recv(w.P, reply, 0, 0)
				strip := int(int32(binary.LittleEndian.Uint32(reply)))
				if strip == stripDone {
					return
				}
				// GAS kernel split: upload strip params (implicit), launch,
				// download, send via host MPI.
				var cost time.Duration
				w.LaunchSync(1, 8, func(b *device.Block) {
					cost = mandelWorkerCompute(mc, strip, b.Bytes(stripPtr, mc.resultLen()))
					b.ChargeTime(cost)
				})
				w.CopyOut(stripPtr, host)
				w.Rank.Send(w.P, host, 0, 0)
			}
		}
	})
	if err != nil {
		return MandelResult{}, err
	}
	return mandelResult(mc, rep.Elapsed, len(workers), owner, img), nil
}

// MandelbrotSingleGPU computes the whole image on one GPU with no
// messaging — the baseline t1 for speedup/efficiency.
func MandelbrotSingleGPU(cfg gas.Config, mc MandelConfig) (MandelResult, error) {
	cfg.Nodes = 1
	cfg.CPUsPerNode = 0
	cfg.GPUsPerNode = 1
	cfg.JitterFrac = mc.JitterFrac
	cfg.JitterSeed = mc.Seed
	img := make([]uint16, mc.Width*mc.Height)
	rep, err := gas.Run(cfg, func(w *gas.Worker) {
		host := make([]byte, 2*len(img))
		ptr := w.Dev.Mem().MustAlloc(len(host))
		w.LaunchSync(1, 8, func(b *device.Block) {
			iters := mandelStrip(mc, 0, mc.Height, b.Bytes(ptr, len(host)))
			b.ChargeTime(time.Duration(float64(iters) * mc.NsPerIter))
		})
		// One result download.
		w.CopyOut(ptr, host)
		decodeCounts(img, host)
	})
	if err != nil {
		return MandelResult{}, err
	}
	res := mandelResult(mc, rep.Elapsed, 1, nil, img)
	return res, nil
}

func mandelResult(mc MandelConfig, elapsed time.Duration, workers int, owner []int, img []uint16) MandelResult {
	pixels := mc.Width * mc.Height
	pps := 0.0
	if elapsed > 0 {
		pps = float64(pixels) / elapsed.Seconds()
	}
	return MandelResult{
		Elapsed:      elapsed,
		Workers:      workers,
		Pixels:       pixels,
		PixelsPerSec: pps,
		StripOwner:   owner,
		Image:        img,
	}
}
