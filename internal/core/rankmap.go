package core

import (
	"errors"
	"fmt"
)

// AnySource matches any sending rank in Recv.
const AnySource = -1

// ErrBadRank is reported by a call that names a peer or root rank outside
// the job. The request fails as it is built, before it reaches the
// communication thread.
var ErrBadRank = errors.New("dcgn: rank out of range")

// checkPeers returns an error wrapping ErrBadRank if a request of kind op
// names a rank outside [0, Total()): a send's destination, a collective's
// root, a receive's source (which may be AnySource), or a sendrecv's
// destination (peer) and source (peer2).
func (m RankMap) checkPeers(op opKind, peer, peer2 int) error {
	in := func(r int, anySource bool) bool { return r >= 0 && r < m.total || anySource && r == AnySource }
	bad, ok := peer, true
	switch op {
	case opSend, opBcast, opGather, opScatter:
		ok = in(peer, false)
	case opRecv:
		ok = in(peer, true)
	case opSendrecv:
		if ok = in(peer, false); ok {
			bad, ok = peer2, in(peer2, true)
		}
	}
	if ok {
		return nil
	}
	return fmt.Errorf("%w: %v names rank %d, the job has [0,%d)", ErrBadRank, op, bad, m.total)
}

// NodeSpec describes one node's contribution of ranks: Cn CPU-kernel
// threads and Gn devices with Sn slots each (paper §3.2.3).
type NodeSpec struct {
	CPUKernels  int
	GPUs        int
	SlotsPerGPU int
}

// ranks returns how many virtual ranks the node owns.
func (s NodeSpec) ranks() int { return s.CPUKernels + s.GPUs*s.SlotsPerGPU }

// validate reports what is nonsensical about a node's shape, nil when
// nothing is.
func (s NodeSpec) validate(node int) error {
	switch {
	case s.CPUKernels < 0 || s.GPUs < 0 || s.SlotsPerGPU < 0:
		return fmt.Errorf("dcgn: node %d has negative resource counts", node)
	case s.GPUs > 0 && s.SlotsPerGPU == 0:
		return fmt.Errorf("dcgn: node %d has GPUs but zero slots (each DPM has at least one slot)", node)
	case s.ranks() == 0:
		return fmt.Errorf("dcgn: node %d contributes no ranks", node)
	}
	return nil
}

// RankMap implements the paper's rank-assignment rule (§3.2.3): every node
// n is given Cn + Gn*Sn consecutive ranks; within a node the lowest ranks
// go to CPU-kernel threads in order, followed by GPU slots in (gpu, slot)
// order. "Ranks are assigned consecutively within a node, and in
// increasing order across successive MPI ranks." Nodes may be
// heterogeneous.
type RankMap struct {
	specs []NodeSpec
	// base holds each node's starting global rank and, after those, each
	// rank's node (Node): one allocation, and no field a Job pays for.
	base  []int
	total int
}

// NewRankMap builds the assignment for the given per-node shapes; it
// panics on a shape that is nonsensical (NewJob reports those as an error
// from Job.Run and Runtime.Submit instead).
func NewRankMap(specs []NodeSpec) RankMap {
	if len(specs) == 0 {
		panic("core: rank map needs at least one node")
	}
	m := RankMap{specs: append([]NodeSpec(nil), specs...)}
	for i, s := range specs {
		if err := s.validate(i); err != nil {
			panic(err)
		}
		m.total += s.ranks()
	}
	m.base = make([]int, len(specs)+m.total)
	r := 0
	for i, s := range specs {
		m.base[i] = r
		for range s.ranks() {
			m.base[len(specs)+r] = i
			r++
		}
	}
	return m
}

// NewUniformRankMap builds a homogeneous assignment (the paper's testbed).
func NewUniformRankMap(nodes, cpuKernels, gpus, slotsPerGPU int) RankMap {
	specs := make([]NodeSpec, nodes)
	for i := range specs {
		specs[i] = NodeSpec{CPUKernels: cpuKernels, GPUs: gpus, SlotsPerGPU: slotsPerGPU}
	}
	return NewRankMap(specs)
}

// Nodes returns the number of nodes.
func (m RankMap) Nodes() int { return len(m.specs) }

// Spec returns a node's resource shape.
func (m RankMap) Spec(node int) NodeSpec { return m.specs[node] }

// PerNode returns the number of ranks a node owns.
func (m RankMap) PerNode(node int) int { return m.specs[node].ranks() }

// Base returns the first (lowest) global rank owned by a node.
func (m RankMap) Base(node int) int { return m.base[node] }

// Total returns the total number of virtual ranks in the job.
func (m RankMap) Total() int { return m.total }

// Node returns the node owning a rank.
func (m RankMap) Node(rank int) int {
	m.check(rank)
	return m.base[len(m.specs)+rank]
}

// Local returns the rank's index within its node.
func (m RankMap) Local(rank int) int {
	return rank - m.base[m.Node(rank)]
}

// IsCPU reports whether the rank belongs to a CPU-kernel thread.
func (m RankMap) IsCPU(rank int) bool {
	return m.Local(rank) < m.specs[m.Node(rank)].CPUKernels
}

// CPUIndex returns the CPU-kernel-thread index of a CPU rank within its
// node.
func (m RankMap) CPUIndex(rank int) int {
	if !m.IsCPU(rank) {
		panic(fmt.Sprintf("core: rank %d is not a CPU rank", rank))
	}
	return m.Local(rank)
}

// GPUSlot returns the (gpu, slot) pair of a GPU rank within its node.
func (m RankMap) GPUSlot(rank int) (gpu, slot int) {
	spec := m.specs[m.Node(rank)]
	l := m.Local(rank)
	if l < spec.CPUKernels {
		panic(fmt.Sprintf("core: rank %d is not a GPU rank", rank))
	}
	l -= spec.CPUKernels
	return l / spec.SlotsPerGPU, l % spec.SlotsPerGPU
}

// CPURank returns the global rank of CPU-kernel thread cpu on a node.
func (m RankMap) CPURank(node, cpu int) int {
	spec := m.specs[node]
	if cpu < 0 || cpu >= spec.CPUKernels {
		panic(fmt.Sprintf("core: bad cpu index %d on node %d", cpu, node))
	}
	return m.base[node] + cpu
}

// GPURank returns the global rank of (gpu, slot) on a node.
func (m RankMap) GPURank(node, gpu, slot int) int {
	spec := m.specs[node]
	if gpu < 0 || gpu >= spec.GPUs || slot < 0 || slot >= spec.SlotsPerGPU {
		panic(fmt.Sprintf("core: bad gpu/slot (%d,%d) on node %d", gpu, slot, node))
	}
	return m.base[node] + spec.CPUKernels + gpu*spec.SlotsPerGPU + slot
}

func (m RankMap) check(rank int) {
	if rank < 0 || rank >= m.total {
		panic(fmt.Sprintf("core: rank %d out of range [0,%d)", rank, m.total))
	}
}
