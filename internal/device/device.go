// Package device simulates a data-parallel machine (DPM) in the sense of
// Stuart & Owens (IPDPS 2009): a GPU-like coprocessor with multiple
// multiprocessors (SMs), a grid/block kernel-launch model, non-preemptive
// block scheduling, and a device memory space separate from host memory.
//
// The simulation preserves the architectural properties DCGN depends on:
//
//   - Kernels are launched by the host; the device cannot initiate any
//     communication or touch host memory. Host<->device data movement goes
//     over a bus (see package pcie).
//   - Once a block is scheduled onto an SM it runs to completion; blocks are
//     never time-sliced. If kernel logic makes an early block wait on a
//     block that cannot be scheduled, the simulation deadlocks — exactly the
//     hazard §3.2.4 of the paper describes.
//   - Threads within a block are modeled as a SIMD group: the kernel
//     function runs once per block and charges compute cost explicitly via
//     Charge/ChargeFLOPs; real Go computation inside the kernel consumes no
//     virtual time, so simulated kernels produce real results while timing
//     stays analytic and deterministic.
package device

import (
	"math/rand"
	"time"

	"dcgn/internal/sim"
)

// Config describes a simulated device.
type Config struct {
	// Name appears in proc names and diagnostics.
	Name string
	// SMs is the number of multiprocessors.
	SMs int
	// BlocksPerSM is how many blocks can be resident on one SM at a time.
	BlocksPerSM int
	// CoresPerSM is the SIMD width of one SM.
	CoresPerSM int
	// GFLOPS is the aggregate peak throughput of the whole device in
	// billions of floating-point operations per second.
	GFLOPS float64
	// MemBytes is the size of device memory.
	MemBytes int
	// ScheduleSeed selects the (arbitrary, hardware-chosen) block issue
	// order: 0 issues blocks in index order, any other value issues a
	// seeded permutation. The paper warns that programs must not depend on
	// this order.
	ScheduleSeed int64
	// LaunchLat is the kernel-launch latency (driver + command processor).
	LaunchLat time.Duration
}

// DefaultConfig models a 2008-era NVIDIA G92: 16 SMs, 8 cores each,
// ~500 GFLOPS peak. Its 64 MB MemBytes is a model number (the address space
// allocations may fail against), not a host cost: the host backs an
// allocation only once something touches it, so a job that needs the G92's
// full 512 MB asks for it.
func DefaultConfig(name string) Config {
	return Config{
		Name:        name,
		SMs:         16,
		BlocksPerSM: 1,
		CoresPerSM:  8,
		GFLOPS:      500,
		MemBytes:    64 << 20,
		LaunchLat:   8 * time.Microsecond,
	}
}

// Device is one simulated DPM.
type Device struct {
	s       *sim.Sim
	cfg     Config
	mem     Arena
	smSlots *sim.Semaphore

	// Jit is the noise stream of the node the device sits in, set by whoever
	// built the device; nil (as New leaves it) charges nominal times.
	Jit *sim.Jitter

	// Precomputed proc/sync labels: launches are per-iteration and blocks
	// per-launch, so formatting these on every spawn shows up in profiles.
	gridName, gridDoneName, dispatchName, blockPrefix string

	// KernelsLaunched counts Launch calls, for tests and reports.
	KernelsLaunched int
}

// New creates a device on the given simulation.
func New(s *sim.Sim, cfg Config) *Device {
	// Internal invariants, like NewArena's size: a DCGN job's Config.Device
	// is checked (core's checkRunnable returns the error) before any device
	// is built.
	if cfg.SMs <= 0 || cfg.BlocksPerSM <= 0 || cfg.CoresPerSM <= 0 {
		panic("device: invalid geometry")
	}
	if cfg.GFLOPS <= 0 {
		panic("device: non-positive GFLOPS")
	}
	d := &Device{s: s, cfg: cfg}
	d.mem.init(cfg.MemBytes)
	// Every label is a slice of one string, one allocation for all five:
	// name:grid-done (name:grid is its prefix), dispatch:name, name:b,
	// sm:name. A dispatcher's kind is "dispatch" (sim.Stats.Kinds), a
	// block's the device's name.
	l, n := cfg.Name+":grid-done"+"dispatch:"+cfg.Name+cfg.Name+":bsm:"+cfg.Name, len(cfg.Name)
	d.gridDoneName, d.gridName = l[:n+10], l[:n+5]
	d.dispatchName, d.blockPrefix = l[n+10:2*n+19], l[2*n+19:3*n+21]
	d.smSlots = s.NewSemaphore(l[3*n+21:], cfg.SMs*cfg.BlocksPerSM)
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// Mem returns the device memory arena.
func (d *Device) Mem() *Arena { return &d.mem }

// Bytes is shorthand for d.Mem().Bytes.
func (d *Device) Bytes(p Ptr, n int) []byte { return d.mem.Bytes(p, n) }

// perBlockFLOPS returns the throughput available to one block occupying one
// SM slot with the given block width.
func (d *Device) perBlockFLOPS(blockDim int) float64 {
	perSM := d.cfg.GFLOPS * 1e9 / float64(d.cfg.SMs)
	occupancy := 1.0
	if blockDim < d.cfg.CoresPerSM {
		occupancy = float64(blockDim) / float64(d.cfg.CoresPerSM)
	}
	return perSM / float64(d.cfg.BlocksPerSM) * occupancy
}

// Kernel is device code: it runs once per block as a SIMD group.
type Kernel func(b *Block)

// Launch represents an in-flight kernel grid, and its dispatcher: a
// stackless proc (dispatch) that issues the grid's blocks in hardware
// order as SM slots free up, then fires done once the last has retired.
type Launch struct {
	wg   *sim.WaitGroup
	done sim.Event

	dev      *Device
	k        Kernel
	order    []int
	next     int // the next block of order to issue
	granted  bool
	blockDim int
	flops    float64
}

// Wait blocks p until every block of the launch has retired, mirroring
// cudaThreadSynchronize.
func (l *Launch) Wait(p *sim.Proc) { l.done.Wait(p) }

// Done reports whether the launch has fully retired.
func (l *Launch) Done() bool { return l.done.Fired() }

// Launch enqueues a kernel grid of gridDim blocks of blockDim threads. It
// returns immediately (launches are asynchronous, as in CUDA); use
// Launch.Wait to synchronize. The calling proc is only used to charge the
// launch latency.
func (d *Device) Launch(p *sim.Proc, gridDim, blockDim int, k Kernel) *Launch {
	if gridDim <= 0 || blockDim <= 0 {
		panic("device: invalid launch dimensions")
	}
	d.KernelsLaunched++
	p.Sleep(d.Jit.Scale(d.cfg.LaunchLat))

	l := &Launch{
		wg:       d.s.NewWaitGroup(d.gridName, gridDim),
		dev:      d,
		k:        k,
		order:    d.blockOrder(gridDim),
		blockDim: blockDim,
		flops:    d.perBlockFLOPS(blockDim),
	}
	d.s.InitEventID(&l.done, d.gridDoneName, sim.NoID)
	d.s.SpawnStep(d.dispatchName, sim.NoID, dispatch, l)
	return l
}

// dispatch is the step of a launch's dispatcher (Proc.Arg is the launch):
// each block waits for a free SM slot — non-preemptive, FIFO behind earlier
// launches — and is spawned once it has one; then the dispatcher waits for
// the grid to retire.
func dispatch(disp *sim.Proc) {
	l := disp.Arg().(*Launch)
	d := l.dev
	for ; l.next < len(l.order); l.next++ {
		if !l.granted && !d.smSlots.AcquireStep(disp, 1) {
			l.granted = true // Release grants the slot before the next step
			return
		}
		l.granted = false
		blockIdx := l.order[l.next]
		d.s.SpawnID(d.blockPrefix, blockIdx, func(bp *sim.Proc) {
			defer func() {
				d.smSlots.Release(1)
				l.wg.Done()
			}()
			b := &Block{
				p:       bp,
				dev:     d,
				Idx:     blockIdx,
				Dim:     l.blockDim,
				GridDim: len(l.order),
				flops:   l.flops,
			}
			l.k(b)
		}, nil)
	}
	if l.wg.WaitStep(disp) {
		l.done.Fire()
	}
}

// blockOrder returns the hardware block issue order.
func (d *Device) blockOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if d.cfg.ScheduleSeed != 0 {
		rng := rand.New(rand.NewSource(d.cfg.ScheduleSeed))
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// Block is the execution context of one resident block (SIMD thread-group).
type Block struct {
	p       *sim.Proc
	dev     *Device
	Idx     int // blockIdx
	Dim     int // blockDim (threads in this block)
	GridDim int
	flops   float64 // throughput available to this block
}

// Proc exposes the underlying simulated proc (for use with sim primitives).
func (b *Block) Proc() *sim.Proc { return b.p }

// Device returns the device this block runs on.
func (b *Block) Device() *Device { return b.dev }

// Charge advances virtual time by the duration it takes this block to
// execute n floating-point operations.
func (b *Block) Charge(nFLOPs float64) {
	if nFLOPs <= 0 {
		return
	}
	b.ChargeTime(time.Duration(nFLOPs / b.flops * 1e9))
}

// ChargeTime advances virtual time by a raw duration (for non-FLOP costs
// such as memory-bound phases).
func (b *Block) ChargeTime(d time.Duration) { b.p.Sleep(b.dev.Jit.Scale(d)) }

// Bytes accesses device memory directly (device code may do this; host code
// must use the bus).
func (b *Block) Bytes(p Ptr, n int) []byte { return b.dev.Bytes(p, n) }

// BusLike is the minimal bus interface the copy helpers need; *pcie.Bus
// satisfies it.
type BusLike interface {
	Down(p *sim.Proc, n int)
	Up(p *sim.Proc, n int)
}

// CopyIn copies host bytes into device memory at ptr over the bus
// (cudaMemcpy host-to-device).
func (d *Device) CopyIn(p *sim.Proc, bus BusLike, ptr Ptr, src []byte) {
	bus.Down(p, len(src))
	copy(d.Bytes(ptr, len(src)), src)
}

// CopyOut copies device memory at ptr into host bytes over the bus
// (cudaMemcpy device-to-host). Memory never touched reads zero and stays
// unbacked.
func (d *Device) CopyOut(p *sim.Proc, bus BusLike, ptr Ptr, dst []byte) {
	bus.Up(p, len(dst))
	d.mem.Read(ptr, dst)
}
