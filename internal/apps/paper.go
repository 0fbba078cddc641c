package apps

import (
	"fmt"
	"math"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/gas"
)

// The paper's numbers, as it prints them.

// paperTable1 is Table 1: cluster shape per node and the paper's MPI and
// DCGN barrier times in microseconds (MPI only where there are no GPUs).
var paperTable1 = []struct {
	nodes, cpus, gpus int
	mpiUs, dcgnUs     float64
}{
	{1, 2, 0, 3, 38}, {1, 0, 2, 0, 313}, {1, 1, 1, 0, 50}, {1, 2, 2, 0, 53},
	{2, 2, 0, 5, 41}, {2, 0, 2, 0, 747}, {2, 2, 2, 0, 55},
	{4, 2, 0, 6, 43}, {4, 0, 2, 0, 806}, {4, 2, 2, 0, 70},
}

// paperFig6 holds Fig. 6's checkpoints: DCGN's one-way time over
// MVAPICH2's, CPU:CPU and GPU:GPU, at 0 B and at 1 MB.
var paperFig6 = struct{ cc0, gg0, cc1M, gg1M float64 }{28, 564, 1.04, 1.5}

// paperMandel holds §5.1's Mandelbrot on 8 GPUs: speed-ups, efficiencies
// in percent, and peak throughputs in Mpixel/s (printed as "~17", "~15").
var paperMandel = struct {
	gasSpeedup, dcgnSpeedup, gasEff, dcgnEff, gasMpix, dcgnMpix float64
}{3.08, 2.72, 38, 34, 17, 15}

// paperCannonEff holds §5.1's Cannon efficiencies on 4 GPUs, in percent.
var paperCannonEff = struct{ gas, dcgn float64 }{74, 71}

// paperNBodyEff is the §5.1 N-body efficiency the paper reports for both
// models on 8 GPUs, by body count (">90%" is taken as 90).
var paperNBodyEff = []struct {
	bodies int
	eff    float64
}{{4096, 28}, {16384, 64}, {32768, 90}}

// Paper is the §5 evaluation: every cell's result and the 29 numbers the
// paper prints beside ours.
type Paper struct {
	Table1     []BarrierRow // Table 1, in the paper's row order
	Fig6       []SendRow    // one row per SendSizes entry
	Fig7       []BcastRow   // one row per BcastSizes entry
	Mandelbrot AppRun[MandelResult]
	Cannon     AppRun[CannonResult]
	NBody      []AppRun[NBodyResult] // at 4 096, 16 384 and 32 768 bodies
	// Refs are the paper's reference points in the order above: Table 1,
	// the Fig. 6 checkpoints, then the §5.1 speed-ups and efficiencies.
	Refs []RefPoint
	// ModelErrPct is the mean of |Residual| over Refs, in percent.
	ModelErrPct float64
}

// BarrierRow is one Table 1 row. MPI is measured only on CPU-only rows,
// where the paper prints it.
type BarrierRow struct {
	Nodes, CPUs, GPUs   int     // per node
	PaperMPI, PaperDCGN float64 // µs; PaperMPI is 0 where the paper has none
	MPI, DCGN           time.Duration
}

// SendRow is one Fig. 6 size: the raw-MPI one-way time, and DCGN's with
// its run's Report for each [src][dst] pairing.
type SendRow struct {
	Size    int
	MPI     time.Duration
	DCGN    [2][2]time.Duration
	Reports [2][2]core.Report
}

// BcastRow is one Fig. 7 size: MVAPICH2 on 8 CPUs, DCGN on 8 CPUs and on
// 8 GPUs.
type BcastRow struct {
	Size          int
	MPI, CPU, GPU time.Duration
}

// AppRun is one §5.1 application at one size: the single-GPU baseline and
// both models on the paper's targets.
type AppRun[R any] struct {
	Single, GAS, DCGN R
}

// RefPoint is one number printed in the paper next to ours.
type RefPoint struct {
	Name  string
	Paper float64
	Ours  float64
}

// Residual is how far ours lies from the paper's number, relative to it.
func (r RefPoint) Residual() float64 { return (r.Ours - r.Paper) / r.Paper }

// Evaluate runs the paper's §5 evaluation, each of its 65 cells once, at
// the paper's shapes and default configurations: Table 1, Fig. 6, Fig. 7,
// and the three §5.1 applications with their single-GPU and GAS+MPI
// baselines.
func Evaluate() (Paper, error) {
	var p Paper
	for _, step := range []func() error{p.table1, p.fig6, p.fig7, p.mandelbrot, p.cannon, p.nbody} {
		if err := step(); err != nil {
			return Paper{}, fmt.Errorf("apps: paper evaluation: %w", err)
		}
	}
	var sum float64
	for _, r := range p.Refs {
		sum += math.Abs(r.Ours-r.Paper) / r.Paper
	}
	p.ModelErrPct = 100 * sum / float64(len(p.Refs))
	return p, nil
}

func (p *Paper) ref(name string, paper, ours float64) {
	p.Refs = append(p.Refs, RefPoint{name, paper, ours})
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// dcgnConfig is the default DCGN cluster with (nodes, cpus, gpus) per node.
func dcgnConfig(nodes, cpus, gpus int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = nodes, cpus, gpus
	return cfg
}

// gasConfig is the default GAS+MPI cluster with (nodes, cpus, gpus) per
// node.
func gasConfig(nodes, cpus, gpus int) gas.Config {
	cfg := gas.DefaultConfig()
	cfg.Nodes, cfg.CPUsPerNode, cfg.GPUsPerNode = nodes, cpus, gpus
	return cfg
}

func (p *Paper) table1() error {
	for _, r := range paperTable1 {
		row := BarrierRow{Nodes: r.nodes, CPUs: r.cpus, GPUs: r.gpus, PaperMPI: r.mpiUs, PaperDCGN: r.dcgnUs}
		shape := fmt.Sprintf("table1 %dn %dc %dg", r.nodes, r.cpus, r.gpus)
		var err error
		if r.gpus == 0 {
			if row.MPI, err = MPIBarrier(gas.DefaultConfig(), r.nodes, r.cpus); err != nil {
				return err
			}
			p.ref(shape+" MPI us", r.mpiUs, us(row.MPI))
		}
		if row.DCGN, err = DCGNBarrier(core.DefaultConfig(), r.nodes, r.cpus, r.gpus); err != nil {
			return err
		}
		p.ref(shape+" DCGN us", r.dcgnUs, us(row.DCGN))
		p.Table1 = append(p.Table1, row)
	}
	return nil
}

func (p *Paper) fig6() error {
	var zero, mb SendRow
	for _, size := range SendSizes {
		row := SendRow{Size: size}
		var err error
		if row.MPI, err = MPISendOneWay(gas.DefaultConfig(), size); err != nil {
			return err
		}
		for _, src := range []Endpoint{EPCPU, EPGPU} {
			for _, dst := range []Endpoint{EPCPU, EPGPU} {
				if row.DCGN[src][dst], row.Reports[src][dst], err = DCGNSendOneWayReport(core.DefaultConfig(), src, dst, size); err != nil {
					return err
				}
			}
		}
		switch size {
		case 0:
			zero = row
		case 1 << 20:
			mb = row
		}
		p.Fig6 = append(p.Fig6, row)
	}
	ratio := func(r SendRow, e Endpoint) float64 { return float64(r.DCGN[e][e]) / float64(r.MPI) }
	p.ref("fig6 0B CPU:CPU / MVAPICH2", paperFig6.cc0, ratio(zero, EPCPU))
	p.ref("fig6 0B GPU:GPU / MVAPICH2", paperFig6.gg0, ratio(zero, EPGPU))
	p.ref("fig6 1MB CPU:CPU / MVAPICH2", paperFig6.cc1M, ratio(mb, EPCPU))
	p.ref("fig6 1MB GPU:GPU / MVAPICH2", paperFig6.gg1M, ratio(mb, EPGPU))
	return nil
}

func (p *Paper) fig7() error {
	for _, size := range BcastSizes {
		row := BcastRow{Size: size}
		var err error
		if row.MPI, err = MPIBroadcast(gas.DefaultConfig(), size); err != nil {
			return err
		}
		if row.CPU, err = DCGNBroadcastCPU(core.DefaultConfig(), size); err != nil {
			return err
		}
		if row.GPU, err = DCGNBroadcastGPU(core.DefaultConfig(), size); err != nil {
			return err
		}
		p.Fig7 = append(p.Fig7, row)
	}
	return nil
}

func (p *Paper) mandelbrot() error {
	mc := DefaultMandelConfig()
	r := &p.Mandelbrot
	var err error
	if r.Single, err = MandelbrotSingleGPU(gasConfig(1, 0, 1), mc); err != nil {
		return err
	}
	if r.GAS, err = MandelbrotGAS(gasConfig(4, 1, 2), mc); err != nil {
		return err
	}
	if r.DCGN, err = MandelbrotDCGN(dcgnConfig(4, 1, 2), mc); err != nil {
		return err
	}
	speedup := func(m MandelResult) float64 { return float64(r.Single.Elapsed) / float64(m.Elapsed) }
	p.ref("mandelbrot GAS speed-up", paperMandel.gasSpeedup, speedup(r.GAS))
	p.ref("mandelbrot DCGN speed-up", paperMandel.dcgnSpeedup, speedup(r.DCGN))
	p.ref("mandelbrot GAS efficiency %", paperMandel.gasEff, 100*speedup(r.GAS)/8)
	p.ref("mandelbrot DCGN efficiency %", paperMandel.dcgnEff, 100*speedup(r.DCGN)/8)
	return nil
}

func (p *Paper) cannon() error {
	cc := DefaultCannonConfig()
	r := &p.Cannon
	var err error
	if r.Single, err = MatmulSingleGPU(gasConfig(1, 0, 1), cc); err != nil {
		return err
	}
	if r.GAS, err = CannonGAS(gasConfig(2, 0, 2), cc); err != nil {
		return err
	}
	if r.DCGN, err = CannonDCGN(dcgnConfig(2, 0, 2), cc); err != nil {
		return err
	}
	eff := func(c CannonResult) float64 { return 100 * float64(r.Single.Elapsed) / float64(c.Elapsed) / 4 }
	p.ref("cannon GAS efficiency %", paperCannonEff.gas, eff(r.GAS))
	p.ref("cannon DCGN efficiency %", paperCannonEff.dcgn, eff(r.DCGN))
	return nil
}

func (p *Paper) nbody() error {
	for _, pt := range paperNBodyEff {
		nc := DefaultNBodyConfig()
		nc.Bodies = pt.bodies
		var r AppRun[NBodyResult]
		var err error
		if r.Single, err = NBodySingleGPU(gasConfig(1, 0, 1), nc); err != nil {
			return err
		}
		if r.GAS, err = NBodyGAS(gasConfig(4, 0, 2), nc); err != nil {
			return err
		}
		if r.DCGN, err = NBodyDCGN(dcgnConfig(4, 0, 2), nc); err != nil {
			return err
		}
		eff := func(n NBodyResult) float64 { return 100 * float64(r.Single.Elapsed) / float64(n.Elapsed) / 8 }
		p.ref(fmt.Sprintf("nbody %d GAS efficiency %%", pt.bodies), pt.eff, eff(r.GAS))
		p.ref(fmt.Sprintf("nbody %d DCGN efficiency %%", pt.bodies), pt.eff, eff(r.DCGN))
		p.NBody = append(p.NBody, r)
	}
	return nil
}
