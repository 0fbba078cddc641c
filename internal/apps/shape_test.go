package apps

// Shape-regression tests: these pin the qualitative results of the paper's
// evaluation (who wins, by roughly what factor, where crossovers fall) so
// that refactoring the substrates cannot silently break the reproduction.
// The six paper tests read the one Evaluate result of the test binary;
// its exact values are pinned by TestPaperEvaluation and tabulated in
// EXPERIMENTS.md. The bands here are deliberately generous. The ablation
// tests at the end run their own cells.

import (
	"testing"
	"time"

	"dcgn/internal/core"
)

// sendRow is the Fig. 6 row of one message size.
func sendRow(t *testing.T, p Paper, size int) SendRow {
	t.Helper()
	for _, r := range p.Fig6 {
		if r.Size == size {
			return r
		}
	}
	t.Fatalf("no Fig. 6 row at %d B", size)
	return SendRow{}
}

// barrierRow is the Table 1 row of one cluster shape.
func barrierRow(t *testing.T, p Paper, nodes, cpus, gpus int) BarrierRow {
	t.Helper()
	for _, r := range p.Table1 {
		if r.Nodes == nodes && r.CPUs == cpus && r.GPUs == gpus {
			return r
		}
	}
	t.Fatalf("no Table 1 row for %dn %dc %dg", nodes, cpus, gpus)
	return BarrierRow{}
}

func TestShapeFig6SendCurves(t *testing.T) {
	p := evaluate(t)
	zero, mb := sendRow(t, p, 0), sendRow(t, p, 1<<20)
	mpi0, cc0, gg0, cg0 := zero.MPI, zero.DCGN[EPCPU][EPCPU], zero.DCGN[EPGPU][EPGPU], zero.DCGN[EPCPU][EPGPU]
	// Zero-byte ordering: MPI << DCGN CPU:CPU << mixed << GPU:GPU.
	r := func(a, b time.Duration) float64 { return float64(a) / float64(b) }
	if r(cc0, mpi0) < 10 || r(cc0, mpi0) > 60 {
		t.Errorf("0B DCGN CPU:CPU / MPI = %.1f, want order of the paper's 28x", r(cc0, mpi0))
	}
	if r(gg0, mpi0) < 60 {
		t.Errorf("0B DCGN GPU:GPU / MPI = %.1f, want ~2 orders of magnitude", r(gg0, mpi0))
	}
	if !(mpi0 < cc0 && cc0 < cg0 && cg0 < gg0) {
		t.Errorf("0B ordering broken: mpi=%v cc=%v cg=%v gg=%v", mpi0, cc0, cg0, gg0)
	}
	// Large messages converge: 1MB CPU:CPU within ~25% of raw MPI; GPU:GPU
	// within a small factor (the paper reports 1.5x of CPU:CPU MVAPICH2).
	mpi1m, cc1m, gg1m := mb.MPI, mb.DCGN[EPCPU][EPCPU], mb.DCGN[EPGPU][EPGPU]
	if r(cc1m, mpi1m) > 1.25 {
		t.Errorf("1MB DCGN CPU:CPU / MPI = %.2f, want near-parity (paper: 1.04)", r(cc1m, mpi1m))
	}
	if r(gg1m, mpi1m) > 4 {
		t.Errorf("1MB DCGN GPU:GPU / MPI = %.2f, want small factor (paper: ~1.5)", r(gg1m, mpi1m))
	}
}

func TestShapeFig7BroadcastCrossover(t *testing.T) {
	// Small/medium DCGN CPU broadcasts beat MVAPICH2 (half the MPI ranks
	// participate); DCGN GPU broadcasts are slower than both throughout.
	for _, row := range evaluate(t).Fig7 {
		size, mpiT, cpuT, gpuT := row.Size, row.MPI, row.CPU, row.GPU
		if size > 64<<10 {
			continue
		}
		if cpuT >= mpiT {
			t.Errorf("size %d: DCGN CPU bcast (%v) should beat MVAPICH2 (%v) at small/medium sizes", size, cpuT, mpiT)
		}
		if gpuT <= mpiT {
			t.Errorf("size %d: DCGN GPU bcast (%v) should be slower than MVAPICH2 (%v)", size, gpuT, mpiT)
		}
	}
}

func TestShapeTable1Barriers(t *testing.T) {
	// CPU-only DCGN barriers are one order of magnitude over MPI;
	// GPU-only barriers are another order up and grow with node count.
	p := evaluate(t)
	cpu := barrierRow(t, p, 1, 2, 0)
	mpi1, dcgnCPU := cpu.MPI, cpu.DCGN
	ratio := float64(dcgnCPU) / float64(mpi1)
	if ratio < 5 || ratio > 40 {
		t.Errorf("1-node 2-CPU barrier ratio %.1f, paper reports 12.67x", ratio)
	}
	gpu1, gpu4 := barrierRow(t, p, 1, 0, 2).DCGN, barrierRow(t, p, 4, 0, 2).DCGN
	if gpu1 < 5*dcgnCPU {
		t.Errorf("GPU-only barrier (%v) should dwarf CPU-only (%v)", gpu1, dcgnCPU)
	}
	if gpu4 <= gpu1 {
		t.Errorf("GPU barrier should grow with nodes: 1-node %v vs 4-node %v", gpu1, gpu4)
	}
	if mixed := barrierRow(t, p, 1, 2, 2).DCGN; mixed >= gpu1 {
		t.Errorf("mixed barrier (%v) should be far cheaper than GPU-only (%v), as in Table 1", mixed, gpu1)
	}
}

func TestShapeSec51Mandelbrot(t *testing.T) {
	m := evaluate(t).Mandelbrot
	t1, gasR, dcgnR := m.Single, m.GAS, m.DCGN
	gasEff := float64(t1.Elapsed) / float64(gasR.Elapsed) / 8
	dcgnEff := float64(t1.Elapsed) / float64(dcgnR.Elapsed) / 8
	if gasEff < 0.30 || gasEff > 0.50 {
		t.Errorf("GAS efficiency %.0f%%, paper reports 38%%", 100*gasEff)
	}
	if dcgnEff < 0.22 || dcgnEff > 0.42 {
		t.Errorf("DCGN efficiency %.0f%%, paper reports 34%%", 100*dcgnEff)
	}
	if dcgnEff >= gasEff {
		t.Errorf("DCGN (%.0f%%) should trail GAS (%.0f%%) slightly", 100*dcgnEff, 100*gasEff)
	}
	if dcgnR.PixelsPerSec >= gasR.PixelsPerSec {
		t.Error("GAS should retain the pixels/s edge (paper: 17M vs 15M)")
	}
}

func TestShapeSec51Cannon(t *testing.T) {
	c := evaluate(t).Cannon
	t1, gasR, dcgnR := c.Single, c.GAS, c.DCGN
	gasEff := float64(t1.Elapsed) / float64(gasR.Elapsed) / 4
	dcgnEff := float64(t1.Elapsed) / float64(dcgnR.Elapsed) / 4
	if gasEff < 0.6 || gasEff > 0.88 {
		t.Errorf("GAS efficiency %.0f%%, paper reports 74%%", 100*gasEff)
	}
	if dcgnEff < 0.55 || dcgnEff > 0.85 {
		t.Errorf("DCGN efficiency %.0f%%, paper reports 71%%", 100*dcgnEff)
	}
	if dcgnEff >= gasEff {
		t.Errorf("DCGN (%.0f%%) should trail GAS (%.0f%%) slightly", 100*dcgnEff, 100*gasEff)
	}
}

func TestShapeSec51NBodyEfficiencyCurve(t *testing.T) {
	// Efficiency must rise steeply with body count and exceed ~85% at 32k
	// (the paper: 28% @4k, 64% @16k, >90% @32k).
	var prev float64
	for i, run := range evaluate(t).NBody {
		eff := float64(run.Single.Elapsed) / float64(run.DCGN.Elapsed) / 8
		if eff <= prev {
			t.Errorf("efficiency should rise with problem size: %.0f%% after %.0f%%", 100*eff, 100*prev)
		}
		if i == 0 && eff > 0.45 {
			t.Errorf("4k-body efficiency %.0f%% too high (comm should dominate)", 100*eff)
		}
		if i == 2 && eff < 0.80 {
			t.Errorf("32k-body efficiency %.0f%% too low (compute should dominate)", 100*eff)
		}
		prev = eff
	}
}

// TestShapePollIntervalMonotonic pins the §3.2.3 trade-off: GPU message
// latency rises monotonically with the poll interval.
func TestShapePollIntervalMonotonic(t *testing.T) {
	var prev time.Duration
	for i, poll := range []time.Duration{15 * time.Microsecond, 120 * time.Microsecond, 480 * time.Microsecond} {
		cfg := core.DefaultConfig()
		cfg.PollInterval = poll
		d, _, err := DCGNSendOneWayReport(cfg, EPGPU, EPGPU, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && d <= prev {
			t.Fatalf("latency should rise with poll interval: %v at %v after %v", d, poll, prev)
		}
		prev = d
	}
}

// TestShapeFutureHWConverges pins the §7 prediction end to end: enabling
// device signaling + GPUDirect brings the 0-byte GPU:GPU send within an
// order of magnitude of raw MPI-era CPU costs.
func TestShapeFutureHWConverges(t *testing.T) {
	classic, _, err := DCGNSendOneWayReport(core.DefaultConfig(), EPGPU, EPGPU, 0)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := core.DefaultConfig()
	fcfg.FutureHW.DeviceSignal = true
	fcfg.FutureHW.GPUDirect = true
	future, _, err := DCGNSendOneWayReport(fcfg, EPGPU, EPGPU, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _, err := DCGNSendOneWayReport(core.DefaultConfig(), EPCPU, EPCPU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if future >= classic/2 {
		t.Errorf("future HW (%v) should cut classic polling cost (%v) at least in half", future, classic)
	}
	if future > 3*cpu {
		t.Errorf("future HW GPU send (%v) should approach DCGN CPU:CPU cost (%v)", future, cpu)
	}
}

// TestShapeTriggeredBeatsClassic pins the one-sided lane's claim at every
// small size: a GPU-triggered put reaches the remote CPU sooner than the
// classic device-sourced send, and without a single productive monitor
// poll — the polling tax is off the critical path, not merely shorter.
func TestShapeTriggeredBeatsClassic(t *testing.T) {
	for _, size := range []int{0, 1 << 10, 4 << 10} {
		classic, _, err := DCGNSendOneWayReport(core.DefaultConfig(), EPGPU, EPCPU, size)
		if err != nil {
			t.Fatal(err)
		}
		triggered, rep, err := DCGNTriggeredOneWay(core.DefaultConfig(), size)
		if err != nil {
			t.Fatal(err)
		}
		if triggered >= classic {
			t.Errorf("%d B: triggered %v not faster than classic %v", size, triggered, classic)
		}
		if rep.PollHits != 0 {
			t.Errorf("%d B: triggered path consumed %d poll hits", size, rep.PollHits)
		}
	}
}
