package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dcgn/internal/transport"
)

func TestRankMapPaperExample(t *testing.T) {
	// The paper's running example: 4 nodes, 2 CPU-kernel threads, 2 GPUs,
	// 1 slot per GPU => 4 ranks per node, 16 total.
	m := NewUniformRankMap(4, 2, 2, 1)
	if m.PerNode(0) != 4 || m.Total() != 16 {
		t.Fatalf("PerNode=%d Total=%d", m.PerNode(0), m.Total())
	}
	// Node 1: ranks 4,5 are CPUs; 6,7 are GPU slots.
	if m.CPURank(1, 0) != 4 || m.CPURank(1, 1) != 5 {
		t.Fatal("CPU ranks wrong")
	}
	if m.GPURank(1, 0, 0) != 6 || m.GPURank(1, 1, 0) != 7 {
		t.Fatal("GPU ranks wrong")
	}
	if !m.IsCPU(5) || m.IsCPU(6) {
		t.Fatal("IsCPU wrong")
	}
	g, s := m.GPUSlot(7)
	if g != 1 || s != 0 {
		t.Fatalf("GPUSlot(7) = (%d,%d)", g, s)
	}
	if m.Node(7) != 1 || m.Node(8) != 2 {
		t.Fatal("Node boundaries wrong")
	}
}

func TestRankMapMultiSlot(t *testing.T) {
	m := NewUniformRankMap(2, 1, 2, 3)
	// Node 0: rank 0 = CPU; ranks 1-3 = GPU0 slots 0-2; ranks 4-6 = GPU1.
	if m.PerNode(0) != 7 {
		t.Fatalf("PerNode=%d", m.PerNode(0))
	}
	g, s := m.GPUSlot(5)
	if g != 1 || s != 1 {
		t.Fatalf("GPUSlot(5) = (%d,%d), want (1,1)", g, s)
	}
	if m.GPURank(1, 1, 2) != 13 {
		t.Fatalf("GPURank(1,1,2) = %d", m.GPURank(1, 1, 2))
	}
}

func TestRankMapHeterogeneous(t *testing.T) {
	// The paper's rule with different shapes per node: node 0 has
	// 2 CPUs + 1 GPU x 2 slots (4 ranks), node 1 has 1 CPU (1 rank),
	// node 2 has 0 CPUs + 2 GPUs x 1 slot (2 ranks).
	m := NewRankMap([]NodeSpec{
		{CPUKernels: 2, GPUs: 1, SlotsPerGPU: 2},
		{CPUKernels: 1},
		{GPUs: 2, SlotsPerGPU: 1},
	})
	if m.Total() != 7 {
		t.Fatalf("Total=%d, want 7", m.Total())
	}
	if m.PerNode(0) != 4 || m.PerNode(1) != 1 || m.PerNode(2) != 2 {
		t.Fatal("per-node counts wrong")
	}
	// Node 0: ranks 0,1 CPU; 2,3 GPU0 slots 0,1.
	if m.GPURank(0, 0, 1) != 3 {
		t.Fatalf("GPURank(0,0,1)=%d", m.GPURank(0, 0, 1))
	}
	// Node 1: rank 4 CPU.
	if m.CPURank(1, 0) != 4 || !m.IsCPU(4) {
		t.Fatal("node 1 CPU rank wrong")
	}
	// Node 2: ranks 5,6 are GPUs.
	if m.Node(5) != 2 || m.IsCPU(5) {
		t.Fatal("node 2 rank 5 wrong")
	}
	g, s := m.GPUSlot(6)
	if g != 1 || s != 0 {
		t.Fatalf("GPUSlot(6)=(%d,%d)", g, s)
	}
}

func TestRankMapRejectsBadSpecs(t *testing.T) {
	for _, specs := range [][]NodeSpec{
		{},
		{{CPUKernels: 0, GPUs: 0}},
		{{CPUKernels: -1}},
		{{GPUs: 1, SlotsPerGPU: 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("specs %v accepted", specs)
				}
			}()
			NewRankMap(specs)
		}()
	}
}

// Property: rank assignment is a bijection over arbitrary heterogeneous
// shapes — every rank decodes to a unique (node, kind, index) that
// re-encodes to itself, and ranks are consecutive.
func TestRankMapBijectionProperty(t *testing.T) {
	f := func(shape []uint16) bool {
		if len(shape) == 0 {
			return true
		}
		if len(shape) > 6 {
			shape = shape[:6]
		}
		specs := make([]NodeSpec, len(shape))
		for i, raw := range shape {
			specs[i] = NodeSpec{
				CPUKernels:  int(raw) % 4,
				GPUs:        int(raw>>2) % 4,
				SlotsPerGPU: int(raw>>4)%3 + 1,
			}
			if specs[i].ranks() == 0 {
				specs[i].CPUKernels = 1
			}
		}
		m := NewRankMap(specs)
		seen := make(map[int]bool)
		for node, spec := range specs {
			for c := 0; c < spec.CPUKernels; c++ {
				r := m.CPURank(node, c)
				if seen[r] || m.Node(r) != node || !m.IsCPU(r) || m.CPUIndex(r) != c {
					return false
				}
				seen[r] = true
			}
			for g := 0; g < spec.GPUs; g++ {
				for s := 0; s < spec.SlotsPerGPU; s++ {
					r := m.GPURank(node, g, s)
					if seen[r] || m.Node(r) != node || m.IsCPU(r) {
						return false
					}
					gg, ss := m.GPUSlot(r)
					if gg != g || ss != s {
						return false
					}
					seen[r] = true
				}
			}
		}
		if len(seen) != m.Total() {
			return false
		}
		for r := 0; r < m.Total(); r++ {
			if !seen[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRankMapNodeMatchesScan: Node's binary search names the node a scan
// of every node's rank range finds, over heterogeneous maps of up to 1024
// nodes.
func TestRankMapNodeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nodes := range []int{1, 2, 3, 7, 64, 1024} {
		specs := make([]NodeSpec, nodes)
		for i := range specs {
			specs[i] = NodeSpec{CPUKernels: rng.Intn(4), GPUs: rng.Intn(3), SlotsPerGPU: 1 + rng.Intn(3)}
			if specs[i].ranks() == 0 {
				specs[i].CPUKernels = 1
			}
		}
		m := NewRankMap(specs)
		rank := 0
		for node, spec := range specs {
			for l := 0; l < spec.ranks(); l++ {
				if got := m.Node(rank); got != node {
					t.Fatalf("%d nodes: Node(%d) = %d, want %d", nodes, rank, got, node)
				}
				rank++
			}
		}
		if rank != m.Total() {
			t.Fatalf("%d nodes: %d ranks scanned, Total %d", nodes, rank, m.Total())
		}
	}
}

// Property: sendrecv peer packing round-trips all rank pairs including
// AnySource.
func TestPackPeersProperty(t *testing.T) {
	f := func(dstRaw, srcRaw int32) bool {
		dst, src := int(dstRaw), int(srcRaw)
		d, s := unpackPeers(packPeers(dst, src))
		return d == dst && s == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	d, s := unpackPeers(packPeers(5, AnySource))
	if d != 5 || s != AnySource {
		t.Fatalf("AnySource pack: (%d,%d)", d, s)
	}
}

// TestBadShapeIsAnError: NewJob refuses no cluster shape; a nonsensical
// one — each of Config's five rejections and NodeSpec's through PerNode —
// comes back as an error from Job.Run and from Runtime.Submit alike, with
// nothing started.
func TestBadShapeIsAnError(t *testing.T) {
	base := func(mod func(*Config)) Config {
		cfg := cpuOnlyConfig(2, 1)
		mod(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no nodes", base(func(c *Config) { c.Nodes = 0 }), "at least one node"},
		{"PerNode length", base(func(c *Config) { c.PerNode = []NodeSpec{{CPUKernels: 1}} }), "PerNode has 1 nodes"},
		{"negative count", base(func(c *Config) { c.CPUKernels = -1 }), "negative resource count"},
		{"no ranks", base(func(c *Config) { c.CPUKernels = 0 }), "contributes no ranks"},
		{"negative shards", base(func(c *Config) { c.Shards = -1 }), "negative shard count"},
		{"node negative count", base(func(c *Config) { c.PerNode = []NodeSpec{{CPUKernels: 1}, {GPUs: -1, CPUKernels: 1}} }), "node 1 has negative"},
		{"node no ranks", base(func(c *Config) { c.PerNode = []NodeSpec{{CPUKernels: 1}, {}} }), "node 1 contributes no ranks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := NewJob(tc.cfg)
			job.SetCPUKernel(func(*CPUCtx) { t.Error("a kernel ran") })
			if _, err := job.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Job.Run: %v, want an error about %q", err, tc.want)
			}
			r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.Submit(job, SubmitOpts{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Runtime.Submit: %v, want an error about %q", err, tc.want)
			}
		})
	}
}
