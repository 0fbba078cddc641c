package dcgn_test

import (
	"fmt"
	"slices"
	"strings"

	"dcgn"
	"dcgn/internal/apps"
)

// Example reproduces the paper's Fig. 3 ping-pong through the public API.
func Example() {
	cfg := dcgn.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = 2, 1, 0
	job := dcgn.NewJob(cfg)
	job.SetCPUKernel(func(c *dcgn.CPUCtx) {
		x := []byte{42, 0, 0, 0}
		switch c.Rank() {
		case 0:
			c.Send(1, x)
			c.Recv(1, x)
			fmt.Printf("rank 0 got back %d\n", x[0])
		case 1:
			c.Recv(0, x)
			x[0]++
			c.Send(0, x)
		}
	})
	if _, err := job.Run(); err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 0 got back 43
}

// ExampleGPUCtx_Send shows device-sourced communication (the paper's
// Fig. 1): a GPU kernel sends directly to a CPU rank, with the payload in
// device global memory.
func ExampleGPUCtx_Send() {
	cfg := dcgn.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 1, 1, 1, 1
	job := dcgn.NewJob(cfg)
	job.SetCPUKernel(func(c *dcgn.CPUCtx) {
		buf := make([]byte, 5)
		st, _ := c.Recv(dcgn.AnySource, buf)
		fmt.Printf("CPU rank 0 heard %q from rank %d\n", buf, st.Source)
	})
	job.SetGPUSetup(func(s *dcgn.GPUSetup) {
		ptr := s.Dev.Mem().MustAlloc(8)
		copy(s.Dev.Bytes(ptr, 5), "hello")
		s.Args["msg"] = ptr
	})
	job.SetGPUKernel(1, 8, func(g *dcgn.GPUCtx) {
		const slot = 0
		g.Send(slot, 0, g.Arg("msg").(dcgn.DevPtr), 5)
	})
	if _, err := job.Run(); err != nil {
		fmt.Println("error:", err)
	}
	// Output: CPU rank 0 heard "hello" from rank 1
}

// ExampleConfig_perNode builds a heterogeneous cluster with the paper's
// general rank rule: node n owns Cn + Gn*Sn consecutive ranks.
func ExampleConfig_perNode() {
	cfg := dcgn.DefaultConfig()
	cfg.Nodes = 2
	cfg.PerNode = []dcgn.NodeSpec{
		{CPUKernels: 1},
		{GPUs: 2, SlotsPerGPU: 2},
	}
	job := dcgn.NewJob(cfg)
	rm := job.Ranks()
	fmt.Printf("total ranks: %d\n", rm.Total())
	fmt.Printf("rank 0 on node %d is CPU: %v\n", rm.Node(0), rm.IsCPU(0))
	g, s := rm.GPUSlot(4)
	fmt.Printf("rank 4 on node %d is gpu %d slot %d\n", rm.Node(4), g, s)
	// Output:
	// total ranks: 5
	// rank 0 on node 0 is CPU: true
	// rank 4 on node 1 is gpu 1 slot 1
}

// ExampleCPUCtx_Gather runs one collective over a cluster whose nodes
// differ: a head node of two CPU threads, a node with a CPU thread and one
// GPU in two slots, and a headless node of two GPUs ("no CPU kernels need be
// run", §3.2). Every rank, thread or slot, contributes its rank number.
func ExampleCPUCtx_Gather() {
	cfg := dcgn.DefaultConfig()
	cfg.Nodes = 3
	cfg.PerNode = []dcgn.NodeSpec{
		{CPUKernels: 2},
		{CPUKernels: 1, GPUs: 1, SlotsPerGPU: 2},
		{GPUs: 2, SlotsPerGPU: 1},
	}
	job := dcgn.NewJob(cfg)
	total := job.Ranks().Total()
	job.SetCPUKernel(func(c *dcgn.CPUCtx) {
		var all []byte
		if c.Rank() == 0 {
			all = make([]byte, total)
		}
		if err := c.Gather(0, []byte{byte(c.Rank())}, all); err != nil {
			fmt.Println("error:", err)
		}
		if c.Rank() == 0 {
			fmt.Println("rank 0 gathered", all)
		}
	})
	job.SetGPUSetup(func(s *dcgn.GPUSetup) {
		s.Args["mem"] = s.Dev.Mem().MustAlloc(2)
	})
	job.SetGPUKernel(2, 8, func(g *dcgn.GPUCtx) {
		slot := g.Block().Idx
		if slot >= g.Slots() {
			return // this device has fewer slots than the widest one
		}
		ptr := g.Arg("mem").(dcgn.DevPtr) + dcgn.DevPtr(slot)
		g.Block().Bytes(ptr, 1)[0] = byte(g.Rank(slot))
		if err := g.Gather(slot, 0, ptr, 1, dcgn.DevNull); err != nil {
			fmt.Println("error:", err)
		}
	})
	if _, err := job.Run(); err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 0 gathered [0 1 2 3 4 5 6]
}

// Example_mandelbrot runs §5.1's Mandelbrot at a small size: a CPU master
// hands image strips to eight GPU slots on four nodes as each asks for
// work, so who computes which strip is decided by timing (Fig. 5;
// cmd/dcgn-mandel shows two runs side by side), while the image is always
// the sequential one.
func Example_mandelbrot() {
	cfg := dcgn.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = 4, 1, 2
	mc := apps.DefaultMandelConfig()
	mc.Width, mc.Height, mc.MaxIter, mc.StripRows = 64, 24, 48, 2
	res, err := apps.MandelbrotDCGN(cfg, mc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	const shades = " .:-=+*#%@"
	for y := 1; y < mc.Height; y += 2 {
		line := make([]byte, mc.Width)
		for x := range line {
			line[x] = shades[int(res.Image[y*mc.Width+x])*(len(shades)-1)/mc.MaxIter]
		}
		fmt.Println(strings.TrimRight(string(line), " "))
	}
	fmt.Printf("%d strips over %d GPU workers; matches the sequential image: %v\n",
		len(res.StripOwner), res.Workers, slices.Equal(res.Image, apps.MandelReference(mc)))
	// Output:
	//                                          ...-..
	//                                    ......:@@@@:.....
	//                                ....:=@@@@@@@@@@@@@#@-.
	//                      ..:-::-:=...-@@@@@@@@@@@@@@@@@@@@.
	//                .....:::+@@@@@@@@+@@@@@@@@@@@@@@@@@@@@..
	//                .....:::+@@@@@@@@+@@@@@@@@@@@@@@@@@@@@..
	//                      ..:-::-:=...-@@@@@@@@@@@@@@@@@@@@.
	//                                ....:=@@@@@@@@@@@@@#@-.
	//                                    ......:@@@@:.....
	//                                          ...-..
	//
	// 12 strips over 8 GPU workers; matches the sequential image: true
}

// Example_cannon runs §5.1's Cannon's algorithm at a small size: four GPU
// slots on two nodes multiply 64x64 matrices in a 2x2 grid, rotating their
// chunks with SendRecv, and the product is checked against a direct
// multiply.
func Example_cannon() {
	cfg := dcgn.DefaultConfig()
	cfg.Nodes, cfg.GPUs = 2, 2
	cc := apps.DefaultCannonConfig()
	cc.N, cc.RealMath = 64, true
	res, err := apps.CannonDCGN(cfg, cc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%dx%d on %d GPU targets; matches a direct multiply: %v\n", cc.N, cc.N, res.Targets, res.Verified)
	// Output: 64x64 on 4 GPU targets; matches a direct multiply: true
}

// Example_nbody runs §5.1's brute-force N-body at a small size: eight GPU
// slots on four nodes each integrate a share of the bodies and broadcast
// it to the rest every step, with no CPU kernel at all, and the result is
// checked against a sequential integration.
func Example_nbody() {
	cfg := dcgn.DefaultConfig()
	cfg.Nodes, cfg.GPUs = 4, 2
	nc := apps.DefaultNBodyConfig()
	nc.Bodies, nc.Steps, nc.RealMath = 256, 2, true
	res, err := apps.NBodyDCGN(cfg, nc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d bodies, %d steps on %d GPU targets; matches a sequential run: %v\n", nc.Bodies, nc.Steps, res.Targets, res.Verified)
	// Output: 256 bodies, 2 steps on 8 GPU targets; matches a sequential run: true
}
