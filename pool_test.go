package dcgn_test

// Regression tests for the buffer-pool refactor: zero-copy wire relay,
// GPU mailbox truncation, and exact pool accounting. These guard the
// perf-PR invariants that -benchmem numbers alone cannot: payloads must
// survive staging-buffer reuse, and every pooled buffer a run acquires
// must be released exactly once.

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// twoNodeCPUCfg is a 2-node, CPU-only cluster (3 kernels per node).
func twoNodeCPUCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 2, 3, 0, 0
	return cfg
}

// recycledOf makes cfg's transports tell which simulators their nodes run
// on, and returns the check that every free list kept under those
// simulators' batons balances once the run is over: each object handed out
// was given back (sim.Recycled.Held is zero), the control objects' twin of
// PoolAcquires == PoolReleases. The spy only embeds the transport, so the
// engine runs on the hosts it runs on unwrapped; every node's lane receiver
// posts its receive on its first step, so every node is seen.
func recycledOf(cfg *core.Config) func(t *testing.T) {
	var mu sync.Mutex // shards receive from threads of their own
	sims := map[*sim.Sim]bool{}
	cfg.WrapTransport = func(tr transport.Transport) transport.Transport {
		return simSpy{tr, func(s *sim.Sim) { mu.Lock(); sims[s] = true; mu.Unlock() }}
	}
	return func(t *testing.T) {
		t.Helper()
		var st sim.Stats
		for s := range sims {
			st.Add(s.Stats())
		}
		if st.Recycled["proc"].Gets == 0 {
			t.Fatal("no simulator seen; the recycling check is vacuous")
		}
		for kind, r := range st.Recycled {
			if r.Held() != 0 {
				t.Errorf("%s: %d handed out, %d given back: %d still held after the run", kind, r.Gets, r.Puts, r.Held())
			}
		}
	}
}

type simSpy struct {
	transport.Transport
	saw func(*sim.Sim)
}

func (t simSpy) RecvStep(p transport.Proc, op *transport.RecvOp) (bool, error) {
	t.saw(p.(*sim.Proc).Sim())
	return t.Transport.RecvStep(p, op)
}

// pattern fills a deterministic per-message byte pattern so a payload
// corrupted by staging-buffer reuse cannot pass the comparison.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*13+7)
	}
	return b
}

// TestWirePayloadSurvivesStagingReuse sends a burst of distinct messages
// across the wire while the receiver stalls, so every payload sits in the
// unexpected queue while the sender's wire and envelope buffers cycle
// through the pool many times. With the zero-copy relay each queued
// message owns its pooled backing; any aliasing bug shows up as payload
// corruption here. Covers both eager (512 B) and rendezvous (16 kB) paths.
func TestWirePayloadSurvivesStagingReuse(t *testing.T) {
	const msgs = 24
	for _, size := range []int{512, 16 << 10} {
		cfg := core.DefaultConfig()
		cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 2, 1, 0, 0
		balanced := recycledOf(&cfg)
		job := core.NewJob(cfg)
		var kernErr error
		job.SetCPUKernel(func(c *core.CPUCtx) {
			switch c.Rank() {
			case 0:
				for m := 0; m < msgs; m++ {
					if err := c.Send(1, pattern(size, byte(m))); err != nil && kernErr == nil {
						kernErr = err
					}
				}
			case 1:
				// Stall so every message arrives, queues unexpected, and its
				// sender-side staging buffers are recycled before we look.
				c.Compute(50 * time.Millisecond)
				buf := make([]byte, size)
				for m := 0; m < msgs; m++ {
					st, err := c.Recv(0, buf)
					if err != nil && kernErr == nil {
						kernErr = err
					}
					if st.Bytes != size || st.Source != 0 {
						t.Errorf("size %d msg %d: status %+v", size, m, st)
					}
					if !bytes.Equal(buf, pattern(size, byte(m))) {
						t.Errorf("size %d msg %d: payload corrupted after staging reuse", size, m)
					}
				}
			}
			c.Barrier()
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if kernErr != nil {
			t.Fatalf("size %d: %v", size, kernErr)
		}
		if rep.PoolAcquires != rep.PoolReleases {
			t.Errorf("size %d: pool leak: %d acquires vs %d releases",
				size, rep.PoolAcquires, rep.PoolReleases)
		}
		balanced(t)
	}
}

// TestGPURecvTruncation drives the mbTrunc mailbox word end to end: a CPU
// rank sends 16 bytes at a GPU slot that posted a 4-byte device buffer.
// The slot must observe ErrTruncate and the truncated byte count through
// the mailbox, with exactly the delivered prefix landing in device memory.
func TestGPURecvTruncation(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 1, 1, 1, 1
	payload := pattern(16, 0xC3)
	balanced := recycledOf(&cfg)

	job := core.NewJob(cfg)
	var sendErr, recvErr error
	var gotStatus core.CommStatus
	var gotBytes []byte
	job.SetCPUKernel(func(c *core.CPUCtx) {
		// Rank 1 is the device slot; truncation is receiver-side only, so
		// the send completes cleanly even though the local delivery
		// truncates (same semantics as a wire-routed send).
		sendErr = c.Send(1, payload)
	})
	job.SetGPUSetup(func(gs *core.GPUSetup) {
		gs.Args["buf"] = gs.Dev.Mem().MustAlloc(4)
	})
	job.SetGPUKernel(1, 1, func(g *core.GPUCtx) {
		ptr := g.Arg("buf").(device.Ptr)
		gotStatus, recvErr = g.Recv(0, 0, ptr, 4)
		gotBytes = append([]byte(nil), g.Device().Bytes(ptr, 4)...)
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(recvErr, core.ErrTruncate) {
		t.Errorf("GPU recv error = %v, want ErrTruncate via mailbox error word", recvErr)
	}
	if sendErr != nil {
		t.Errorf("sender error = %v, want nil (truncation is receiver-side)", sendErr)
	}
	if gotStatus.Bytes != 4 || gotStatus.Source != 0 {
		t.Errorf("status = %+v, want {Source:0 Bytes:4}", gotStatus)
	}
	if !bytes.Equal(gotBytes, payload[:4]) {
		t.Errorf("device buffer = %x, want prefix %x", gotBytes, payload[:4])
	}
	if rep.PoolAcquires != rep.PoolReleases {
		t.Errorf("pool leak: %d acquires vs %d releases", rep.PoolAcquires, rep.PoolReleases)
	}
	balanced(t)
}

// TestPoolLeakGuardMixedWorkload exercises every pooled staging path in one
// run — remote sends (wire pack + envelope + zero-copy backing), local
// matches, SendRecvReplace's temp, and all collective scratch buffers — and
// asserts the job pool balances to zero outstanding buffers.
func TestPoolLeakGuardMixedWorkload(t *testing.T) {
	cfg := twoNodeCPUCfg()
	balanced := recycledOf(&cfg)
	job := core.NewJob(cfg)
	var kernErr error
	fail := func(err error) {
		if err != nil && kernErr == nil {
			kernErr = err
		}
	}
	job.SetCPUKernel(func(c *core.CPUCtx) {
		me, n := c.Rank(), c.Size()
		next, prev := (me+1)%n, (me+n-1)%n

		// Cross-node and local point-to-point.
		buf := pattern(2048, byte(me))
		if me%2 == 0 {
			fail(c.Send((me+n/2)%n, buf))
		} else {
			in := make([]byte, 2048)
			_, err := c.Recv(core.AnySource, in)
			fail(err)
		}
		c.Barrier()

		// In-place ring exchange (pools a temp per call).
		ring := pattern(1024, byte(me+100))
		_, err := c.SendRecvReplace(next, prev, ring)
		fail(err)
		if !bytes.Equal(ring, pattern(1024, byte(prev+100))) {
			t.Errorf("rank %d: ring payload corrupted", me)
		}

		// Collectives: bcast, gather, scatter, alltoall.
		bc := make([]byte, 4096)
		if me == 0 {
			copy(bc, pattern(4096, 0x5A))
		}
		fail(c.Bcast(0, bc))
		if !bytes.Equal(bc, pattern(4096, 0x5A)) {
			t.Errorf("rank %d: bcast payload corrupted", me)
		}

		var gathered []byte
		if me == 1 {
			gathered = make([]byte, n*256)
		}
		fail(c.Gather(1, pattern(256, byte(me+1)), gathered))

		var scattered []byte
		if me == 2 {
			scattered = make([]byte, n*128)
			for r := 0; r < n; r++ {
				copy(scattered[r*128:], pattern(128, byte(r+50)))
			}
		}
		chunk := make([]byte, 128)
		fail(c.Scatter(2, scattered, chunk))
		if !bytes.Equal(chunk, pattern(128, byte(me+50))) {
			t.Errorf("rank %d: scatter chunk corrupted", me)
		}

		a2aSend := make([]byte, n*64)
		for r := 0; r < n; r++ {
			copy(a2aSend[r*64:], pattern(64, byte(me*16+r)))
		}
		a2aRecv := make([]byte, n*64)
		fail(c.AllToAll(a2aSend, a2aRecv))
		for r := 0; r < n; r++ {
			if !bytes.Equal(a2aRecv[r*64:(r+1)*64], pattern(64, byte(r*16+me))) {
				t.Errorf("rank %d: alltoall chunk from %d corrupted", me, r)
			}
		}
		c.Barrier()
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if kernErr != nil {
		t.Fatal(kernErr)
	}
	if rep.PoolAcquires == 0 {
		t.Fatal("workload acquired no pooled buffers; leak guard is vacuous")
	}
	if rep.PoolAcquires != rep.PoolReleases {
		t.Errorf("pool leak: %d acquires vs %d releases (outstanding %d)",
			rep.PoolAcquires, rep.PoolReleases, int64(rep.PoolAcquires)-int64(rep.PoolReleases))
	}
	balanced(t)
}

// TestPoolLeakGuardGPUTraffic runs GPU-sourced cross-node traffic so the
// device staging buffers (buildRequest/writeBack) and the GPU collective
// path flow through the leak check too.
func TestPoolLeakGuardGPUTraffic(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 2, 0, 1, 1
	payload := pattern(1024, 0x7E)
	balanced := recycledOf(&cfg)

	job := core.NewJob(cfg)
	var recvErr error
	var got []byte
	job.SetGPUSetup(func(gs *core.GPUSetup) {
		gs.Args["buf"] = gs.Dev.Mem().MustAlloc(1024)
	})
	job.SetGPUKernel(1, 1, func(g *core.GPUCtx) {
		ptr := g.Arg("buf").(device.Ptr)
		switch g.Rank(0) {
		case 0:
			copy(g.Device().Bytes(ptr, 1024), payload)
			if err := g.Send(0, 1, ptr, 1024); err != nil {
				recvErr = err
			}
		case 1:
			if _, err := g.Recv(0, 0, ptr, 1024); err != nil {
				recvErr = err
			}
			got = append([]byte(nil), g.Device().Bytes(ptr, 1024)...)
		}
		g.Barrier(0)
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !bytes.Equal(got, payload) {
		t.Error("GPU-to-GPU wire payload corrupted")
	}
	if rep.PoolAcquires == 0 {
		t.Fatal("GPU workload acquired no pooled buffers; leak guard is vacuous")
	}
	if rep.PoolAcquires != rep.PoolReleases {
		t.Errorf("pool leak: %d acquires vs %d releases", rep.PoolAcquires, rep.PoolReleases)
	}
	balanced(t)
}
