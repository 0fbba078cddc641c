// Package pcie models a PCI-Express bus connecting a node's host CPU to its
// data-parallel devices.
//
// The model is a latency/bandwidth pipe with serialization: every DMA
// transfer occupies the bus for Lat + n/BW, and concurrent transfers queue
// FIFO. Small control-plane transactions (the status reads DCGN's polling
// loop issues, and flag write-backs) have their own cheaper latency because
// they do not pay DMA setup cost.
//
// Constants are era-appropriate for the paper's testbed (PCIe 1.x, pre-GPUDirect
// drivers): transfers are always host-initiated, which is exactly the
// limitation DCGN works around.
package pcie

import (
	"time"

	"dcgn/internal/sim"
)

// Config describes a bus's timing characteristics.
type Config struct {
	// Lat is the per-DMA-transfer setup latency (driver call + DMA engine
	// programming).
	Lat time.Duration
	// BW is the sustained bandwidth in bytes per second.
	BW float64
	// CtlLat is the latency of a small control transaction (status-word
	// read or flag write), cheaper than a full DMA.
	CtlLat time.Duration
}

// DefaultConfig returns timing representative of the paper's 2008-era
// PCIe 1.x testbed.
func DefaultConfig() Config {
	return Config{
		Lat:    12 * time.Microsecond,
		BW:     3e9,
		CtlLat: 6 * time.Microsecond,
	}
}

// Bus is one PCIe bus instance, shared by every device on a node.
type Bus struct {
	s   *sim.Sim
	cfg Config
	res *sim.Resource

	// Jit is the noise stream of the node the bus sits in, set by whoever
	// built the bus; nil (as New leaves it) charges nominal times.
	Jit *sim.Jitter

	// Stats
	Transfers int
	BytesUp   int64 // device -> host
	BytesDown int64 // host -> device
	CtlOps    int
}

// New creates a bus on the given simulation.
func New(s *sim.Sim, name string, cfg Config) *Bus {
	if cfg.BW <= 0 {
		panic("pcie: non-positive bandwidth")
	}
	return &Bus{s: s, cfg: cfg, res: s.NewResource("pcie:"+name, 1)}
}

// xferTime returns the service time for an n-byte DMA.
func (b *Bus) xferTime(n int) time.Duration {
	return b.cfg.Lat + time.Duration(float64(n)/b.cfg.BW*1e9)
}

// Down charges a host-to-device DMA of n bytes, blocking p for queueing plus
// transfer time.
func (b *Bus) Down(p *sim.Proc, n int) {
	b.DownStep(p, n)
	p.Await()
}

// DownStep is Down's step form: it registers p's wake for the end of the
// transfer (Resource.UseStep).
func (b *Bus) DownStep(p *sim.Proc, n int) {
	b.Transfers++
	b.BytesDown += int64(n)
	b.res.UseStep(p, b.Jit.Scale(b.xferTime(n)))
}

// Up charges a device-to-host DMA of n bytes.
func (b *Bus) Up(p *sim.Proc, n int) {
	b.UpStep(p, n)
	p.Await()
}

// UpStep is Up's step form.
func (b *Bus) UpStep(p *sim.Proc, n int) {
	b.Transfers++
	b.BytesUp += int64(n)
	b.res.UseStep(p, b.Jit.Scale(b.xferTime(n)))
}

// CtlStep charges a small control transaction (poll read / flag write) of
// n bytes as a step form; n only matters if it exceeds a cache line's worth
// of data. Only the GPU-kernel thread's daemons make one, stackless.
func (b *Bus) CtlStep(p *sim.Proc, n int) {
	b.CtlOps++
	d := b.cfg.CtlLat
	if n > 64 {
		d += time.Duration(float64(n) / b.cfg.BW * 1e9)
	}
	b.res.UseStep(p, b.Jit.Scale(d))
}

// DirectStep charges a GPUDirect-style transfer as a step form: the device
// pushes/pulls n bytes to a peer PCIe device (NIC) from pinned buffers —
// full bandwidth, doorbell-level setup latency instead of a host-driven DMA
// program.
func (b *Bus) DirectStep(p *sim.Proc, n int) {
	b.Transfers++
	b.res.UseStep(p, b.Jit.Scale(b.cfg.CtlLat+time.Duration(float64(n)/b.cfg.BW*1e9)))
}
