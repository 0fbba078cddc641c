// Package gas implements the "GPU-as-slave + MPI" execution model the
// paper compares DCGN against (§2.3): each MPI rank is a host CPU thread
// that may own one GPU as a passive coprocessor. All communication is
// performed by the host through raw MPI; kernels are split across
// communication points, with explicit host<->device copies around every
// launch.
//
// With GPUsPerNode = 0 the harness degenerates to a plain MPI runner and
// serves as the "MVAPICH2" rows/series of the paper's tables and figures.
package gas

import (
	"fmt"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/device"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/pcie"
	"dcgn/internal/sim"
)

// Config describes a GAS cluster.
type Config struct {
	Nodes       int
	CPUsPerNode int // plain MPI ranks (no device)
	GPUsPerNode int // MPI ranks that each own one device

	Device device.Config
	Net    fabric.Config
	Bus    pcie.Config
	MPI    mpi.Config

	JitterFrac     float64
	JitterSeed     int64
	MaxVirtualTime time.Duration
}

// DefaultConfig mirrors the paper's testbed: 4 nodes, 2 CPU cores and
// 2 GPUs each.
func DefaultConfig() Config {
	return Config{
		Nodes:       4,
		CPUsPerNode: 2,
		GPUsPerNode: 2,
		Device:      device.DefaultConfig("gpu"),
		Net:         fabric.DefaultConfig(),
		Bus:         pcie.DefaultConfig(),
		MPI:         mpi.DefaultConfig(),
	}
}

// Worker is the per-rank context handed to the worker function.
type Worker struct {
	// Rank is this worker's MPI endpoint.
	Rank *mpi.Rank
	// P is the simulated proc driving this rank.
	P *sim.Proc
	// Node is the hosting node index.
	Node int
	// Dev is the owned device, nil for plain CPU ranks.
	Dev *device.Device
	// GPU is the device index within the node (-1 for CPU ranks).
	GPU int
	// Bus is the node's PCIe bus (nil when the node has no devices).
	Bus *pcie.Bus
	// jit is the node's noise stream, seeded from the run's JitterFrac and
	// JitterSeed and the node index.
	jit *sim.Jitter
}

// Compute charges d of host CPU work to this rank.
func (w *Worker) Compute(d time.Duration) { w.P.Sleep(w.jit.Scale(d)) }

// IsGPU reports whether this rank owns a device.
func (w *Worker) IsGPU() bool { return w.Dev != nil }

// LaunchSync launches a kernel and blocks until the grid retires — the
// GAS model's kernel-per-phase idiom (launch, wait, communicate, repeat).
func (w *Worker) LaunchSync(grid, blockDim int, k device.Kernel) {
	if w.Dev == nil {
		panic("gas: LaunchSync on a CPU rank")
	}
	w.Dev.Launch(w.P, grid, blockDim, k).Wait(w.P)
}

// CopyIn uploads host bytes to device memory (cudaMemcpy H2D).
func (w *Worker) CopyIn(ptr device.Ptr, src []byte) {
	w.Dev.CopyIn(w.P, w.Bus, ptr, src)
}

// CopyOut downloads device memory to host bytes (cudaMemcpy D2H).
func (w *Worker) CopyOut(ptr device.Ptr, dst []byte) {
	w.Dev.CopyOut(w.P, w.Bus, ptr, dst)
}

// Report summarizes a completed GAS run.
type Report struct {
	Elapsed    time.Duration
	NetPackets int
	NetBytes   int64
	// PoolAcquires / PoolReleases count MPI staging-buffer pool traffic
	// (eager copies, rendezvous snapshots); a clean run balances them.
	PoolAcquires uint64
	PoolReleases uint64
}

// Run builds the cluster, spawns one proc per rank executing worker, and
// runs the simulation to completion. Rank order per node: CPU ranks first,
// then GPU ranks, nodes in order (mirroring DCGN's assignment so results
// are comparable).
func Run(cfg Config, worker func(w *Worker)) (Report, error) {
	if cfg.Nodes <= 0 {
		panic("gas: need at least one node")
	}
	perNode := cfg.CPUsPerNode + cfg.GPUsPerNode
	if perNode == 0 {
		panic("gas: node contributes no ranks")
	}
	if cfg.MaxVirtualTime == 0 {
		cfg.MaxVirtualTime = time.Hour
	}
	s := sim.New()
	s.SetMaxTime(cfg.MaxVirtualTime)
	net := fabric.New(s, cfg.Nodes, cfg.Net)

	nodeOf := make([]int, cfg.Nodes*perNode)
	for r := range nodeOf {
		nodeOf[r] = r / perNode
	}
	if cfg.MPI.Pool == nil {
		cfg.MPI.Pool = bufpool.New()
	}
	world := mpi.NewWorld(s, net, nodeOf, cfg.MPI)

	for n := 0; n < cfg.Nodes; n++ {
		jit := net.Node(n).Jitter()
		jit.Seed(cfg.JitterFrac, cfg.JitterSeed, n)
		var bus *pcie.Bus
		if cfg.GPUsPerNode > 0 {
			bus = pcie.New(s, fmt.Sprintf("n%d", n), cfg.Bus)
			bus.Jit = jit
		}
		for l := 0; l < perNode; l++ {
			rank := n*perNode + l
			w := &Worker{Rank: world.Rank(rank), Node: n, GPU: -1, Bus: bus, jit: jit}
			if l >= cfg.CPUsPerNode {
				g := l - cfg.CPUsPerNode
				devCfg := cfg.Device
				devCfg.Name = fmt.Sprintf("gpu%d.%d", n, g)
				w.Dev = device.New(s, devCfg)
				w.Dev.Jit = jit
				w.GPU = g
			}
			s.SpawnID("gas-rank", rank, func(p *sim.Proc) {
				w.P = p
				worker(w)
			}, nil)
		}
	}
	err := s.Run()
	pkts, bytes := net.Totals()
	return Report{
		Elapsed: s.Now(), NetPackets: pkts, NetBytes: bytes,
		PoolAcquires: cfg.MPI.Pool.Acquires(), PoolReleases: cfg.MPI.Pool.Releases(),
	}, err
}
