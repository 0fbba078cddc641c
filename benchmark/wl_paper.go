package main

import (
	"fmt"
	"math"
	"time"

	"dcgn/internal/apps"
	"dcgn/internal/core"
	"dcgn/internal/gas"
)

// paper_eval: exactly what `dcgn-bench` with no flags computes — Table 1,
// Fig. 6, Fig. 7 and the §5.1 applications with their GAS and MPI
// baselines — through the same internal/apps functions at their default
// configurations (64 MiB device arenas included). The cells are fixed by
// the paper; the seed is recorded and otherwise unused.

var paperEval = &workload{
	name: "paper_eval",
	op:   "one experiment cell",
	why:  "the run every reproducer makes: collectives, device set-up at default arena size, and the model's error against the paper",
	mix:  mix{sizes: apps.SendSizes, nodes: 4, procs: 36, gpus: true, memBytes: 64 << 20},
	prepare: func(e env) (repFn, error) {
		return func(traced bool) (outcome, error) { return runPaper(e.quick, traced) }, nil
	},
}

// refPoint is one number printed in the paper next to ours. The points
// are the ones EXPERIMENTS.md tabulates: Table 1, the Fig. 6 checkpoints
// and the §5.1 speed-ups and efficiencies.
type refPoint struct {
	Name  string  `json:"name"`
	Paper float64 `json:"paper"`
	Ours  float64 `json:"ours"`
}

// paperTable1 is Table 1: cluster shape and the paper's MPI and DCGN
// barrier times in microseconds (MPI only where there are no GPUs).
var paperTable1 = []struct {
	nodes, cpus, gpus int
	mpiUs, dcgnUs     float64
}{
	{1, 2, 0, 3, 38}, {1, 0, 2, 0, 313}, {1, 1, 1, 0, 50}, {1, 2, 2, 0, 53},
	{2, 2, 0, 5, 41}, {2, 0, 2, 0, 747}, {2, 2, 2, 0, 55},
	{4, 2, 0, 6, 43}, {4, 0, 2, 0, 806}, {4, 2, 2, 0, 70},
}

// paperNBodyEff is the §5.1 N-body efficiency the paper reports for both
// models, by body count (">90%" is taken as 90).
var paperNBodyEff = []struct {
	bodies int
	eff    float64
}{{4096, 28}, {16384, 64}, {32768, 90}}

// paperRun accumulates one sweep.
type paperRun struct {
	quick, traced bool
	start         time.Time
	out           outcome
}

// quickDeviceMem is the device arena size of the smoke mode, whose cells
// would otherwise spend their time zeroing 64 MiB arenas.
const quickDeviceMem = 8 << 20

// cell records one experiment cell: its virtual result and how many
// simulated devices it constructed.
func (p *paperRun) cell(virt time.Duration, devices int) {
	p.out.ops++
	p.out.virtNs += virt.Nanoseconds()
	p.out.digest = (p.out.digest ^ uint64(virt)) * fnvPrime
	p.out.counts.devices += devices
	p.out.marks = append(p.out.marks, time.Since(p.start)) // a checkpoint after every cell
}

// ran records an application's cell right after it ran, or passes its
// error on.
func (p *paperRun) ran(virt time.Duration, devices int, err error) error {
	if err == nil {
		p.cell(virt, devices)
	}
	return err
}

// report folds a DCGN cell's engine report in (its devices were counted
// by cell).
func (p *paperRun) report(rep core.Report) {
	if rep.PoolAcquires != rep.PoolReleases {
		p.out.fail(poolLeak, 1)
	}
	p.out.counts.add(rep, 0)
}

func (p *paperRun) ref(name string, paper, ours float64) {
	p.out.refs = append(p.out.refs, refPoint{name, paper, ours})
}

func (p *paperRun) dcgn(nodes, cpus, gpus int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = nodes, cpus, gpus
	cfg.Trace, cfg.Flows, cfg.Metrics = p.traced, p.traced, p.traced
	if p.quick {
		cfg.Device.MemBytes = quickDeviceMem
	}
	return cfg
}

func (p *paperRun) gas(nodes, cpus, gpus int) gas.Config {
	cfg := gas.DefaultConfig()
	cfg.Nodes, cfg.CPUsPerNode, cfg.GPUsPerNode = nodes, cpus, gpus
	if p.quick {
		cfg.Device.MemBytes = quickDeviceMem
	}
	return cfg
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runPaper runs every cell once. quick keeps one cell of each experiment.
func runPaper(quick, traced bool) (outcome, error) {
	p := &paperRun{quick: quick, traced: traced, start: time.Now(), out: outcome{digest: fnvOffset}}
	steps := []func(*paperRun) error{table1, fig6, fig7, mandelbrot, cannon, nbody}
	for _, step := range steps {
		if err := step(p); err != nil {
			return outcome{}, fmt.Errorf("paper_eval: %w", err)
		}
	}
	var sum float64
	for _, r := range p.out.refs {
		sum += math.Abs(r.Ours-r.Paper) / r.Paper
	}
	p.out.own = values{"model_err_pct": 100 * sum / float64(len(p.out.refs))}
	return p.out, nil
}

func table1(p *paperRun) error {
	for i, r := range paperTable1 {
		if p.quick && i > 1 {
			break
		}
		shape := fmt.Sprintf("table1 %dn %dc %dg", r.nodes, r.cpus, r.gpus)
		if r.gpus == 0 {
			m, err := apps.MPIBarrier(p.gas(4, 2, 2), r.nodes, r.cpus)
			if err != nil {
				return err
			}
			p.cell(m, 0)
			p.ref(shape+" MPI us", r.mpiUs, us(m))
		}
		d, err := apps.DCGNBarrier(p.dcgn(4, 2, 2), r.nodes, r.cpus, r.gpus)
		if err != nil {
			return err
		}
		p.cell(d, 5*r.nodes*r.gpus) // DCGNBarrier averages five polling-phase seeds
		p.ref(shape+" DCGN us", r.dcgnUs, us(d))
	}
	return nil
}

func fig6(p *paperRun) error {
	var mpi0, mpi1M, cc0, cc1M, gg0, gg1M time.Duration
	sizes := apps.SendSizes
	if p.quick {
		sizes = []int{0, 1 << 20}
	}
	for _, size := range sizes {
		m, err := apps.MPISendOneWay(p.gas(4, 2, 2), size)
		if err != nil {
			return err
		}
		p.cell(m, 0)
		var lat [2][2]time.Duration
		for _, src := range []apps.Endpoint{apps.EPCPU, apps.EPGPU} {
			for _, dst := range []apps.Endpoint{apps.EPCPU, apps.EPGPU} {
				d, rep, err := apps.DCGNSendOneWayReport(p.dcgn(4, 2, 2), src, dst, size)
				if err != nil {
					return err
				}
				p.cell(d, 2)
				p.report(rep)
				lat[src][dst] = d
			}
		}
		switch size {
		case 0:
			mpi0, cc0, gg0 = m, lat[apps.EPCPU][apps.EPCPU], lat[apps.EPGPU][apps.EPGPU]
		case 1 << 20:
			mpi1M, cc1M, gg1M = m, lat[apps.EPCPU][apps.EPCPU], lat[apps.EPGPU][apps.EPGPU]
		}
	}
	ratio := func(a, b time.Duration) float64 { return float64(a) / float64(b) }
	p.ref("fig6 0B CPU:CPU / MVAPICH2", 28, ratio(cc0, mpi0))
	p.ref("fig6 0B GPU:GPU / MVAPICH2", 564, ratio(gg0, mpi0))
	p.ref("fig6 1MB CPU:CPU / MVAPICH2", 1.04, ratio(cc1M, mpi1M))
	p.ref("fig6 1MB GPU:GPU / MVAPICH2", 1.5, ratio(gg1M, mpi1M))
	return nil
}

func fig7(p *paperRun) error {
	sizes := apps.BcastSizes
	if p.quick {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		m, err := apps.MPIBroadcast(p.gas(4, 2, 2), size)
		if err != nil {
			return err
		}
		p.cell(m, 0)
		c, err := apps.DCGNBroadcastCPU(p.dcgn(4, 2, 2), size)
		if err != nil {
			return err
		}
		p.cell(c, 0)
		g, err := apps.DCGNBroadcastGPU(p.dcgn(4, 2, 2), size)
		if err != nil {
			return err
		}
		p.cell(g, 8)
	}
	return nil
}

func mandelbrot(p *paperRun) error {
	mc := apps.DefaultMandelConfig()
	if p.quick {
		mc.Width, mc.Height = 256, 128
	}
	t1, err := apps.MandelbrotSingleGPU(p.gas(1, 0, 1), mc)
	if err := p.ran(t1.Elapsed, 1, err); err != nil {
		return err
	}
	g, err := apps.MandelbrotGAS(p.gas(4, 1, 2), mc)
	if err := p.ran(g.Elapsed, 8, err); err != nil {
		return err
	}
	d, err := apps.MandelbrotDCGN(p.dcgn(4, 1, 2), mc)
	if err := p.ran(d.Elapsed, 8, err); err != nil {
		return err
	}
	p.report(d.Report)
	speedup := func(r apps.MandelResult) float64 { return float64(t1.Elapsed) / float64(r.Elapsed) }
	p.ref("mandelbrot GAS speed-up", 3.08, speedup(g))
	p.ref("mandelbrot DCGN speed-up", 2.72, speedup(d))
	p.ref("mandelbrot GAS efficiency %", 38, 100*speedup(g)/8)
	p.ref("mandelbrot DCGN efficiency %", 34, 100*speedup(d)/8)
	return nil
}

func cannon(p *paperRun) error {
	cc := apps.DefaultCannonConfig()
	if p.quick {
		cc.N = 256
	}
	t1, err := apps.MatmulSingleGPU(p.gas(1, 0, 1), cc)
	if err := p.ran(t1.Elapsed, 1, err); err != nil {
		return err
	}
	g, err := apps.CannonGAS(p.gas(2, 0, 2), cc)
	if err := p.ran(g.Elapsed, 4, err); err != nil {
		return err
	}
	d, err := apps.CannonDCGN(p.dcgn(2, 0, 2), cc)
	if err := p.ran(d.Elapsed, 4, err); err != nil {
		return err
	}
	p.report(d.Report)
	eff := func(r apps.CannonResult) float64 { return 100 * float64(t1.Elapsed) / float64(r.Elapsed) / 4 }
	p.ref("cannon GAS efficiency %", 74, eff(g))
	p.ref("cannon DCGN efficiency %", 71, eff(d))
	return nil
}

func nbody(p *paperRun) error {
	for i, pt := range paperNBodyEff {
		if p.quick && i > 0 {
			break
		}
		nc := apps.DefaultNBodyConfig()
		nc.Bodies = pt.bodies
		t1, err := apps.NBodySingleGPU(p.gas(1, 0, 1), nc)
		if err := p.ran(t1.Elapsed, 1, err); err != nil {
			return err
		}
		g, err := apps.NBodyGAS(p.gas(4, 0, 2), nc)
		if err := p.ran(g.Elapsed, 8, err); err != nil {
			return err
		}
		d, err := apps.NBodyDCGN(p.dcgn(4, 0, 2), nc)
		if err := p.ran(d.Elapsed, 8, err); err != nil {
			return err
		}
		p.report(d.Report)
		eff := func(r apps.NBodyResult) float64 { return 100 * float64(t1.Elapsed) / float64(r.Elapsed) / 8 }
		p.ref(fmt.Sprintf("nbody %d GAS efficiency %%", pt.bodies), pt.eff, eff(g))
		p.ref(fmt.Sprintf("nbody %d DCGN efficiency %%", pt.bodies), pt.eff, eff(d))
	}
	return nil
}
