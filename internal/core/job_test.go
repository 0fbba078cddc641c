package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dcgn/internal/device"
)

// cpuOnlyConfig returns a small CPU-only cluster.
func cpuOnlyConfig(nodes, cpus int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.CPUKernels = cpus
	cfg.GPUs = 0
	cfg.SlotsPerGPU = 0
	return cfg
}

// gpuConfig returns a cluster with GPUs (and optionally CPU threads).
func gpuConfig(nodes, cpus, gpus, slots int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.CPUKernels = cpus
	cfg.GPUs = gpus
	cfg.SlotsPerGPU = slots
	cfg.Device.MemBytes = 8 << 20
	return cfg
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*31)
	}
	return b
}

// A caller who starts from a zero Config and sets part of the overhead model
// keeps what they set: only a Params nobody touched is defaulted. (At the
// parent commit a dead knob, Params.MaxMsg, decided, and this read 10µs.)
func TestPartlySetParamsAreKept(t *testing.T) {
	cfg := NewJob(Config{Nodes: 2, CPUKernels: 1, Params: Params{DispatchCost: time.Millisecond, LocalMemcpyBW: 4e9}}).Config()
	if got := cfg.Params.DispatchCost; got != time.Millisecond {
		t.Errorf("DispatchCost = %v, want the 1ms the caller set", got)
	}
	if got := NewJob(Config{Nodes: 2, CPUKernels: 1}).Config().Params; got != DefaultParams() {
		t.Errorf("a zero Params was not defaulted: %+v", got)
	}
}

func TestCPUPingPongRemote(t *testing.T) {
	job := NewJob(cpuOnlyConfig(2, 1))
	msg := pattern(1000, 5)
	var got []byte
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 1000)
		switch c.Rank() {
		case 0:
			copy(buf, msg)
			if err := c.Send(1, buf); err != nil {
				t.Error(err)
			}
			if _, err := c.Recv(1, buf); err != nil {
				t.Error(err)
			}
			got = append([]byte(nil), buf...)
		case 1:
			st, err := c.Recv(0, buf)
			if err != nil || st.Source != 0 || st.Bytes != 1000 {
				t.Errorf("recv: %v %+v", err, st)
			}
			if err := c.Send(0, buf); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("ping-pong corrupted payload")
	}
}

func TestCPULocalSendRecvSameNode(t *testing.T) {
	job := NewJob(cpuOnlyConfig(1, 2))
	var got byte
	job.SetCPUKernel(func(c *CPUCtx) {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, []byte{99}); err != nil {
				t.Error(err)
			}
		case 1:
			buf := make([]byte, 1)
			st, err := c.Recv(0, buf)
			if err != nil || st.Source != 0 {
				t.Errorf("local recv: %v %+v", err, st)
			}
			got = buf[0]
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("got %d", got)
	}
	if rep.NetPackets != 0 {
		t.Fatalf("local send used the network: %d packets", rep.NetPackets)
	}
}

func TestCPUAnySource(t *testing.T) {
	job := NewJob(cpuOnlyConfig(2, 2)) // ranks 0,1 node0; 2,3 node1
	order := []int{}
	job.SetCPUKernel(func(c *CPUCtx) {
		if c.Rank() == 0 {
			buf := make([]byte, 8)
			for i := 0; i < 3; i++ {
				st, err := c.Recv(AnySource, buf)
				if err != nil {
					t.Error(err)
				}
				order = append(order, st.Source)
			}
			return
		}
		c.Compute(time.Duration(c.Rank()) * time.Millisecond)
		c.Send(0, []byte(fmt.Sprintf("r%d", c.Rank())))
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("received %d messages", len(order))
	}
	// Ranks sent at 1,2,3 ms: arrival order must follow.
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("arrival order %v", order)
		}
	}
}

func TestGPUPingPongAcrossNodes(t *testing.T) {
	// Two nodes, one GPU each, no CPU kernels: the paper's Fig. 1 scenario.
	cfg := gpuConfig(2, 0, 1, 1)
	job := NewJob(cfg)
	const n = 4096
	msg := pattern(n, 7)
	var got []byte
	job.SetGPUSetup(func(s *GPUSetup) {
		ptr := s.Dev.Mem().MustAlloc(n)
		if s.Node == 0 {
			s.Dev.CopyIn(s.Proc, s.Bus, ptr, msg)
		}
		s.Args["buf"] = ptr
	})
	job.SetGPUKernel(1, 8, func(g *GPUCtx) {
		if g.Block().Idx != 0 {
			return
		}
		ptr := g.Arg("buf").(device.Ptr)
		switch g.Rank(0) {
		case 0:
			if err := g.Send(0, 1, ptr, n); err != nil {
				t.Error(err)
			}
			if _, err := g.Recv(0, 1, ptr, n); err != nil {
				t.Error(err)
			}
		case 1:
			st, err := g.Recv(0, 0, ptr, n)
			if err != nil || st.Source != 0 || st.Bytes != n {
				t.Errorf("gpu recv: %v %+v", err, st)
			}
			if err := g.Send(0, 0, ptr, n); err != nil {
				t.Error(err)
			}
		}
	})
	job.SetGPUTeardown(func(s *GPUSetup) {
		if s.Node == 0 {
			got = make([]byte, n)
			s.Dev.CopyOut(s.Proc, s.Bus, s.Args["buf"].(device.Ptr), got)
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("GPU ping-pong corrupted payload")
	}
	if rep.Polls == 0 || rep.PollHits == 0 {
		t.Fatalf("polling never happened: %+v", rep)
	}
	// Each direction needs at least one poll interval of latency.
	if rep.Elapsed < cfg.PollInterval {
		t.Fatalf("elapsed %v impossibly fast for polled communication", rep.Elapsed)
	}
}

func TestCPUToGPUAndBack(t *testing.T) {
	// One node: rank 0 = CPU, rank 1 = GPU slot. CPU sends, GPU doubles,
	// GPU sends back.
	cfg := gpuConfig(1, 1, 1, 1)
	job := NewJob(cfg)
	const n = 512
	var result []byte
	job.SetCPUKernel(func(c *CPUCtx) {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(i % 100)
		}
		if err := c.Send(1, out); err != nil {
			t.Error(err)
		}
		in := make([]byte, n)
		if _, err := c.Recv(1, in); err != nil {
			t.Error(err)
		}
		result = in
	})
	job.SetGPUSetup(func(s *GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(n)
	})
	job.SetGPUKernel(1, 8, func(g *GPUCtx) {
		ptr := g.Arg("buf").(device.Ptr)
		if _, err := g.Recv(0, 0, ptr, n); err != nil {
			t.Error(err)
		}
		data := g.Block().Bytes(ptr, n)
		for i := range data {
			data[i] *= 2
		}
		g.Block().Charge(float64(n))
		if err := g.Send(0, 0, ptr, n); err != nil {
			t.Error(err)
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range result {
		if result[i] != byte(i%100)*2 {
			t.Fatalf("result[%d] = %d", i, result[i])
		}
	}
}

func TestBarrierMixedCPUGPU(t *testing.T) {
	// 2 nodes x (1 CPU + 1 GPU slot) = 4 ranks. All join one barrier; no
	// rank may leave before the last arrives.
	cfg := gpuConfig(2, 1, 1, 1)
	job := NewJob(cfg)
	var exits []time.Duration
	const slowest = 3 * time.Millisecond
	job.SetCPUKernel(func(c *CPUCtx) {
		c.Compute(time.Duration(c.Rank()+1) * time.Millisecond)
		c.Barrier()
		exits = append(exits, c.Now())
	})
	job.SetGPUKernel(1, 8, func(g *GPUCtx) {
		g.Block().ChargeTime(time.Duration(g.Rank(0)) * 500 * time.Microsecond)
		g.Barrier(0)
		exits = append(exits, g.Block().Proc().Now())
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if len(exits) != 4 {
		t.Fatalf("%d barrier exits", len(exits))
	}
	for _, e := range exits {
		if e < slowest {
			t.Fatalf("a rank left the barrier at %v before the slowest arrival at %v", e, slowest)
		}
	}
}

func TestBcastCPURootToGPUs(t *testing.T) {
	// Rank 0 (CPU, node 0) broadcasts; GPU slots on both nodes receive
	// into device memory.
	cfg := gpuConfig(2, 1, 1, 1)
	job := NewJob(cfg)
	const n = 2048
	payload := pattern(n, 42)
	results := map[int][]byte{}
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, n)
		if c.Rank() == 0 {
			copy(buf, payload)
		}
		if err := c.Bcast(0, buf); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf, payload) {
			t.Errorf("CPU rank %d: bcast corrupted", c.Rank())
		}
	})
	job.SetGPUSetup(func(s *GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(n)
	})
	job.SetGPUKernel(1, 8, func(g *GPUCtx) {
		ptr := g.Arg("buf").(device.Ptr)
		if err := g.Bcast(0, 0, ptr, n); err != nil {
			t.Error(err)
		}
	})
	job.SetGPUTeardown(func(s *GPUSetup) {
		out := make([]byte, n)
		s.Dev.CopyOut(s.Proc, s.Bus, s.Args["buf"].(device.Ptr), out)
		results[s.Node] = out
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	for node, out := range results {
		if !bytes.Equal(out, payload) {
			t.Fatalf("node %d GPU received corrupted broadcast", node)
		}
	}
}

func TestGatherToCPURoot(t *testing.T) {
	// 2 nodes x 2 CPUs: each rank contributes its rank byte; root 0
	// assembles in rank order.
	job := NewJob(cpuOnlyConfig(2, 2))
	const chunk = 100
	var gathered []byte
	job.SetCPUKernel(func(c *CPUCtx) {
		mine := pattern(chunk, byte(c.Rank()))
		var recv []byte
		if c.Rank() == 0 {
			recv = make([]byte, 4*chunk)
		}
		if err := c.Gather(0, mine, recv); err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			gathered = recv
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if !bytes.Equal(gathered[r*chunk:(r+1)*chunk], pattern(chunk, byte(r))) {
			t.Fatalf("gather chunk %d corrupted", r)
		}
	}
}

func TestScatterFromCPURoot(t *testing.T) {
	job := NewJob(cpuOnlyConfig(2, 2))
	const chunk = 64
	job.SetCPUKernel(func(c *CPUCtx) {
		var src []byte
		if c.Rank() == 0 {
			src = make([]byte, 4*chunk)
			for r := 0; r < 4; r++ {
				copy(src[r*chunk:], pattern(chunk, byte(r*3)))
			}
		}
		dst := make([]byte, chunk)
		if err := c.Scatter(0, src, dst); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(dst, pattern(chunk, byte(c.Rank()*3))) {
			t.Errorf("rank %d scatter chunk corrupted", c.Rank())
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleSlotsPerGPU(t *testing.T) {
	// One node, one GPU with 4 slots, 1 CPU. Each slot sends its rank to
	// the CPU; the CPU sees all four virtual ranks from one device —
	// the paper's Fig. 1 virtualization claim.
	cfg := gpuConfig(1, 1, 1, 4)
	job := NewJob(cfg)
	got := map[int]bool{}
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 8)
		for i := 0; i < 4; i++ {
			st, err := c.Recv(AnySource, buf)
			if err != nil {
				t.Error(err)
			}
			got[st.Source] = true
		}
	})
	job.SetGPUSetup(func(s *GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(4 * 8)
	})
	// Grid of 4 blocks, block i drives slot i.
	job.SetGPUKernel(4, 8, func(g *GPUCtx) {
		slot := g.Block().Idx
		base := g.Arg("buf").(device.Ptr)
		ptr := base + device.Ptr(slot*8)
		data := g.Block().Bytes(ptr, 8)
		data[0] = byte(g.Rank(slot))
		if err := g.Send(slot, 0, ptr, 8); err != nil {
			t.Error(err)
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 3, 4} {
		if !got[r] {
			t.Fatalf("never heard from slot rank %d: %v", r, got)
		}
	}
}

func TestUnmatchedRecvDeadlocks(t *testing.T) {
	job := NewJob(cpuOnlyConfig(1, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 8)
		c.Recv(AnySource, buf) // nobody will ever send
	})
	_, err := job.Run()
	if err == nil {
		t.Fatal("expected deadlock or timeout")
	}
}

func TestTruncationReported(t *testing.T) {
	job := NewJob(cpuOnlyConfig(2, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		switch c.Rank() {
		case 0:
			c.Send(1, pattern(100, 1))
		case 1:
			buf := make([]byte, 10)
			_, err := c.Recv(0, buf)
			if !errors.Is(err, ErrTruncate) {
				t.Errorf("want ErrTruncate, got %v", err)
			}
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDCGNOverheadVsRawMPIShape(t *testing.T) {
	// The headline micro-benchmark shape (Fig. 6): a 0-byte DCGN CPU:CPU
	// message costs an order of magnitude more than raw MPI; a 0-byte
	// GPU:GPU message costs two orders more (polling).
	oneWay := func(cfg Config, gpu bool) time.Duration {
		job := NewJob(cfg)
		var rtt time.Duration
		if !gpu {
			job.SetCPUKernel(func(c *CPUCtx) {
				buf := make([]byte, 1)
				switch c.Rank() {
				case 0:
					start := c.Now()
					c.Send(1, buf)
					c.Recv(1, buf)
					rtt = c.Now() - start
				case 1:
					c.Recv(0, buf)
					c.Send(0, buf)
				}
			})
		} else {
			job.SetGPUSetup(func(s *GPUSetup) {
				s.Args["buf"] = s.Dev.Mem().MustAlloc(64)
			})
			job.SetGPUKernel(1, 8, func(g *GPUCtx) {
				ptr := g.Arg("buf").(device.Ptr)
				switch g.Rank(0) {
				case 0:
					start := g.Block().Proc().Now()
					g.Send(0, 1, ptr, 1)
					g.Recv(0, 1, ptr, 1)
					rtt = g.Block().Proc().Now() - start
				case 1:
					g.Recv(0, 0, ptr, 1)
					g.Send(0, 0, ptr, 1)
				}
			})
		}
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		return rtt / 2
	}
	cpu := oneWay(cpuOnlyConfig(2, 1), false)
	gpu := oneWay(gpuConfig(2, 0, 1, 1), true)
	if cpu < 20*time.Microsecond || cpu > 200*time.Microsecond {
		t.Errorf("DCGN CPU:CPU 0-byte one-way %v outside expected overhead band", cpu)
	}
	if gpu < 4*cpu {
		t.Errorf("GPU:GPU (%v) should be far slower than CPU:CPU (%v) due to polling", gpu, cpu)
	}
}

func TestCPUSendRecvExchange(t *testing.T) {
	// Ring exchange among 4 CPU ranks using the combined primitive: no
	// deadlock, correct payload rotation.
	job := NewJob(cpuOnlyConfig(2, 2))
	ok := 0
	job.SetCPUKernel(func(c *CPUCtx) {
		n := c.Size()
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		out := pattern(5000, byte(c.Rank()))
		in := make([]byte, 5000)
		st, err := c.SendRecv(next, out, prev, in)
		if err != nil || st.Source != prev {
			t.Errorf("rank %d: %v %+v", c.Rank(), err, st)
		}
		if bytes.Equal(in, pattern(5000, byte(prev))) {
			ok++
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if ok != 4 {
		t.Fatalf("%d/4 exchanges verified", ok)
	}
}

func TestGPUSendRecvReplaceOneMailboxOp(t *testing.T) {
	// Two GPU ranks exchange buffers in place with a single mailbox
	// transaction each.
	cfg := gpuConfig(2, 0, 1, 1)
	job := NewJob(cfg)
	const n = 2048
	results := map[int][]byte{}
	job.SetGPUSetup(func(s *GPUSetup) {
		ptr := s.Dev.Mem().MustAlloc(n)
		s.Dev.CopyIn(s.Proc, s.Bus, ptr, pattern(n, byte(s.Node)))
		s.Args["buf"] = ptr
	})
	job.SetGPUKernel(1, 8, func(g *GPUCtx) {
		me := g.Rank(0)
		other := 1 - me
		ptr := g.Arg("buf").(device.Ptr)
		st, err := g.SendRecv(0, other, ptr, n, other, ptr, n)
		if err != nil || st.Source != other || st.Bytes != n {
			t.Errorf("rank %d: %v %+v", me, err, st)
		}
	})
	job.SetGPUTeardown(func(s *GPUSetup) {
		out := make([]byte, n)
		s.Dev.CopyOut(s.Proc, s.Bus, s.Args["buf"].(device.Ptr), out)
		results[s.Node] = out
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(results[0], pattern(n, 1)) || !bytes.Equal(results[1], pattern(n, 0)) {
		t.Fatal("in-place exchange corrupted")
	}
}

// TestLocalSendBlocksUntilMatched pins the paper's §6.2 semantics: "Local
// sends finish upon matching with a local receive" — two local ranks that
// both Send before Recv deadlock, while remote sends complete on
// injection.
func TestLocalSendBlocksUntilMatched(t *testing.T) {
	job := NewJob(cpuOnlyConfig(1, 2))
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 8)
		other := 1 - c.Rank()
		c.Send(other, buf) // both block: local sends need a matched recv
		c.Recv(other, buf)
	})
	if _, err := job.Run(); err == nil {
		t.Fatal("head-to-head local blocking sends should deadlock")
	}
	// The same program across nodes completes: remote sends finish when
	// the underlying (eager) MPI send completes.
	job2 := NewJob(cpuOnlyConfig(2, 1))
	job2.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 8)
		other := 1 - c.Rank()
		if err := c.Send(other, buf); err != nil {
			t.Error(err)
		}
		if _, err := c.Recv(other, buf); err != nil {
			t.Error(err)
		}
	})
	if _, err := job2.Run(); err != nil {
		t.Fatalf("remote eager exchange should complete: %v", err)
	}
}

// TestAsyncSendRecvOverlap exercises the nonblocking host-side operations:
// many outstanding ISends/IRecvs complete out of band and in FIFO order.
func TestAsyncSendRecvOverlap(t *testing.T) {
	job := NewJob(cpuOnlyConfig(2, 1))
	const n = 6
	job.SetCPUKernel(func(c *CPUCtx) {
		switch c.Rank() {
		case 0:
			var ops []*AsyncOp
			bufs := make([][]byte, n)
			for i := 0; i < n; i++ {
				bufs[i] = pattern(2000+i*100, byte(i))
				ops = append(ops, c.ISend(1, bufs[i]))
			}
			for _, op := range ops {
				if _, err := op.Wait(c); err != nil {
					t.Error(err)
				}
			}
		case 1:
			var ops []*AsyncOp
			bufs := make([][]byte, n)
			for i := 0; i < n; i++ {
				bufs[i] = make([]byte, 2000+i*100)
				ops = append(ops, c.IRecv(0, bufs[i]))
			}
			for i, op := range ops {
				st, err := op.Wait(c)
				if err != nil || st.Bytes != 2000+i*100 {
					t.Errorf("op %d: %v %+v", i, err, st)
				}
				if !bytes.Equal(bufs[i], pattern(2000+i*100, byte(i))) {
					t.Errorf("op %d corrupted", i)
				}
			}
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncTest verifies Test() reports completion without blocking.
func TestAsyncTest(t *testing.T) {
	job := NewJob(cpuOnlyConfig(2, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		switch c.Rank() {
		case 0:
			buf := make([]byte, 8)
			op := c.IRecv(1, buf)
			if _, done := op.Test(); done {
				t.Error("recv complete before any send")
			}
			c.Compute(5 * time.Millisecond)
			if _, done := op.Test(); !done {
				t.Error("recv still incomplete after message arrival")
			}
		case 1:
			c.Compute(time.Millisecond)
			c.Send(0, make([]byte, 8))
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncTestThenWait: an op polled with Test until it completes is
// still spent by its Wait, which reports what Test saw and gives the op
// back to its kernel, so the next IRecv takes it again instead of a new
// one.
func TestAsyncTestThenWait(t *testing.T) {
	const rounds = 3
	job := NewJob(cpuOnlyConfig(2, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		for i := 0; i < rounds; i++ {
			if c.Rank() == 1 {
				c.Compute(time.Millisecond)
				c.Send(0, pattern(8+i, byte(i)))
				continue
			}
			buf := make([]byte, 16)
			op := c.IRecv(1, buf)
			tested, done := op.Test()
			for ; !done; tested, done = op.Test() {
				c.Compute(100 * time.Microsecond)
			}
			st, err := op.Wait(c)
			if err != nil || st != tested || st.Bytes != 8+i || !bytes.Equal(buf[:st.Bytes], pattern(8+i, byte(i))) {
				t.Errorf("round %d: Wait %+v %v, Test saw %+v", i, st, err, tested)
			}
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if r := jobStats(job).Recycled["async-op"]; r.Gets != rounds || r.Fresh != 1 || r.Held() != 0 {
		t.Errorf("async-op %+v: want %d handed out, one allocated, none held", r, rounds)
	}
}

// TestAsyncLocalBothDirections: two local ranks exchange with nonblocking
// ops — the pattern that deadlocks with blocking sends works with ISend.
func TestAsyncLocalBothDirections(t *testing.T) {
	job := NewJob(cpuOnlyConfig(1, 2))
	job.SetCPUKernel(func(c *CPUCtx) {
		other := 1 - c.Rank()
		out := pattern(4096, byte(c.Rank()))
		in := make([]byte, 4096)
		sendOp := c.ISend(other, out)
		recvOp := c.IRecv(other, in)
		if _, err := recvOp.Wait(c); err != nil {
			t.Error(err)
		}
		if _, err := sendOp.Wait(c); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(in, pattern(4096, byte(other))) {
			t.Error("async local exchange corrupted")
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceRecordsRequestLifecycles verifies Config.Trace captures every
// request with sensible timings.
func TestTraceRecordsRequestLifecycles(t *testing.T) {
	cfg := gpuConfig(2, 1, 1, 1)
	cfg.Trace = true
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 128)
		if c.Rank() == 0 {
			c.Send(3, buf) // to the GPU slot on node 1
		}
		c.Barrier()
	})
	job.SetGPUSetup(func(s *GPUSetup) {
		s.Args["b"] = s.Dev.Mem().MustAlloc(128)
	})
	job.SetGPUKernel(1, 8, func(g *GPUCtx) {
		ptr := g.Arg("b").(device.Ptr)
		if g.Rank(0) == 3 {
			if _, err := g.Recv(0, 0, ptr, 128); err != nil {
				t.Error(err)
			}
		}
		g.Barrier(0)
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) == 0 {
		t.Fatal("no trace records")
	}
	ops := map[string]int{}
	gpuRecords := 0
	for _, r := range rep.Trace {
		if r.Done < r.Post {
			t.Fatalf("record %+v completed before posting", r)
		}
		if r.Failed {
			t.Fatalf("record %+v failed", r)
		}
		ops[r.Op]++
		if r.GPU {
			gpuRecords++
		}
	}
	if ops["send"] != 1 || ops["recv"] != 1 || ops["barrier"] != 4 {
		t.Fatalf("unexpected op counts %v", ops)
	}
	if gpuRecords != 3 { // GPU recv + two GPU barriers
		t.Fatalf("gpu records %d, want 3", gpuRecords)
	}
	var sb strings.Builder
	WriteTrace(&sb, rep.Trace)
	if !strings.Contains(sb.String(), "barrier") || !strings.Contains(sb.String(), "gpu") {
		t.Fatalf("trace rendering missing content:\n%s", sb.String())
	}
}

// TestGPUBadRankIsAnError: a device call that names a rank outside the job
// comes back from its mailbox with ErrBadRank — it never reaches the comm
// thread, and nothing is staged for it — and the slot is free for the next
// call, whose message arrives.
func TestGPUBadRankIsAnError(t *testing.T) {
	job := NewJob(gpuConfig(2, 0, 1, 1))
	const n = 64
	job.SetGPUSetup(func(s *GPUSetup) { s.Args["buf"] = s.Dev.Mem().MustAlloc(n) })
	job.SetGPUKernel(1, 8, func(g *GPUCtx) {
		if g.Block().Idx != 0 {
			return
		}
		ptr := g.Arg("buf").(device.Ptr)
		if g.Rank(0) == 1 {
			if st, err := g.Recv(0, 0, ptr, n); err != nil || st.Bytes != n {
				t.Errorf("good receive after the bad calls: %+v, %v", st, err)
			}
			return
		}
		for _, call := range []struct {
			name string
			do   func() error
		}{
			{"send", func() error { return g.Send(0, 9999, ptr, n) }},
			{"recv", func() error { _, err := g.Recv(0, g.Size(), ptr, n); return err }},
			{"sendrecv-src", func() error { _, err := g.SendRecv(0, 1, ptr, n, 9999, ptr, n); return err }},
			{"sendrecv-dst", func() error { _, err := g.SendRecv(0, -3, ptr, n, 1, ptr, n); return err }},
			{"bcast-root", func() error { return g.Bcast(0, 9999, ptr, n) }},
		} {
			if err := call.do(); !errors.Is(err, ErrBadRank) {
				t.Errorf("%s: error %v, want ErrBadRank", call.name, err)
			}
		}
		if err := g.Send(0, 1, ptr, n); err != nil {
			t.Errorf("good send after the bad calls: %v", err)
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PoolAcquires != rep.PoolReleases {
		t.Errorf("pool leak: %d acquires vs %d releases", rep.PoolAcquires, rep.PoolReleases)
	}
}
