package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/transport"
)

// One-sided lane tests: Put/Get/WinWait semantics on the CPU side, the
// GPU-triggered descriptor path, and the lane's acceptance criteria —
// zero monitor polls on the triggered path and lower device-sourced
// small-message latency than the classic mailbox relay.

// TestOneSidedPutWinWait checks the basic remote put: origin returns
// without the target posting anything, the target observes delivery via
// WinWait, and the bytes land at the requested offset.
func TestOneSidedPutWinWait(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		msg := pattern(1024, 11)
		win := make([]byte, 4096)
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				c.Barrier() // rank 1's window is registered
				if err := c.Put(1, 0, 256, msg); err != nil {
					t.Errorf("put: %v", err)
				}
			case 1:
				c.RegisterWindow(0, win)
				c.Barrier()
				c.WinWait(0, 1)
				st := c.WinStats(0)
				if st.Arrivals != 1 || st.Truncated != 0 {
					t.Errorf("window stats: %+v", st)
				}
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(win[256:256+len(msg)], msg) {
			t.Fatal("put payload did not land at the window offset")
		}
		for _, b := range win[:256] {
			if b != 0 {
				t.Fatal("put scribbled before its offset")
			}
		}
		if rep.OneSidedPuts != 1 {
			t.Errorf("report counted %d puts, want 1", rep.OneSidedPuts)
		}
	})
}

// TestOneSidedGet checks the origin-blocking read path, local and remote.
func TestOneSidedGet(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 2))
		src := pattern(2048, 23)
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 1: // window owner, node 0
				buf := append([]byte(nil), src...)
				c.RegisterWindow(7, buf)
				c.Barrier()
				c.Barrier() // hold the window until readers finish
			case 0, 2: // local (rank 0) and remote (rank 2) readers
				c.Barrier()
				dst := make([]byte, 512)
				st, err := c.Get(1, 7, 128, dst)
				if err != nil || st.Source != 1 || st.Bytes != 512 {
					t.Errorf("rank %d get: %v %+v", c.Rank(), err, st)
				}
				if !bytes.Equal(dst, src[128:128+512]) {
					t.Errorf("rank %d get payload wrong", c.Rank())
				}
				c.Barrier()
			default:
				c.Barrier()
				c.Barrier()
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.OneSidedGets != 2 {
			t.Errorf("report counted %d gets, want 2", rep.OneSidedGets)
		}
	})
}

// TestConformanceOneSidedTruncation pins clipping semantics on both
// backends: an over-running put is clipped target-side and counted, an
// over-running get delivers the clipped prefix with ErrTruncate at the
// origin — mirroring receive truncation on the two-sided path.
func TestConformanceOneSidedTruncation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		big := pattern(100, 3)
		win := make([]byte, 40)
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				c.Barrier()
				// Put overflow: clipped at the target, no origin error.
				if err := c.Put(1, 0, 0, big); err != nil {
					t.Errorf("put: want nil (target-side clipping), got %v", err)
				}
				// Get overflow: clipped prefix + ErrTruncate at the origin.
				dst := make([]byte, 100)
				st, err := c.Get(1, 0, 0, dst)
				if !errors.Is(err, ErrTruncate) || st.Bytes != 40 {
					t.Errorf("get: %v %+v", err, st)
				}
				if !bytes.Equal(dst[:40], big[:40]) {
					t.Error("truncated get delivered wrong prefix")
				}
			case 1:
				c.RegisterWindow(0, win)
				c.Barrier()
				c.WinWait(0, 1)
				if st := c.WinStats(0); st.Truncated != 1 {
					t.Errorf("window did not count the clipped put: %+v", st)
				}
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(win, big[:40]) {
			t.Fatal("clipped put delivered wrong prefix")
		}
		if rep.OneSidedTruncated != 1 {
			t.Errorf("report counted %d truncations, want 1", rep.OneSidedTruncated)
		}
	})
}

// TestConformanceOneSidedFIFOIndependence pins the lane's independence
// from two-sided matching on both backends: a put posted AFTER a send
// completes at the target even though the matching receive for that send
// is never posted until the put has landed. On the classic path this
// ordering would deadlock a single-threaded receiver; the one-sided lane
// never touches the matcher, so it cannot.
func TestConformanceOneSidedFIFOIndependence(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		job := NewJob(backendConfig(backend, 2, 1))
		win := make([]byte, 8)
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				c.Barrier()
				op := c.ISend(1, pattern(64, 9)) // parked: no receive yet
				if err := c.Put(1, 0, 0, []byte{1, 2, 3, 4}); err != nil {
					t.Errorf("put: %v", err)
				}
				if _, err := op.Wait(c); err != nil {
					t.Errorf("isend: %v", err)
				}
			case 1:
				c.RegisterWindow(0, win)
				c.Barrier()
				// The put lands while the two-sided send is still unmatched.
				c.WinWait(0, 1)
				buf := make([]byte, 64)
				if _, err := c.Recv(0, buf); err != nil {
					t.Errorf("recv: %v", err)
				}
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(win[:4], []byte{1, 2, 3, 4}) {
			t.Fatal("put blocked behind unmatched two-sided traffic")
		}
	})
}

// TestConformanceOneSidedRemoteCompletionOrdering pins per-origin apply
// order on both backends: puts from one origin apply at the target in
// post order, so after WinWait(n) the window holds the LAST value posted.
func TestConformanceOneSidedRemoteCompletionOrdering(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const n = 16
		job := NewJob(backendConfig(backend, 2, 1))
		win := make([]byte, 4)
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				c.Barrier()
				for i := 1; i <= n; i++ {
					if err := c.Put(1, 0, 0, []byte{byte(i)}); err != nil {
						t.Errorf("put %d: %v", i, err)
					}
				}
			case 1:
				c.RegisterWindow(0, win)
				c.Barrier()
				c.WinWait(0, n)
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if win[0] != n {
			t.Fatalf("window holds %d after %d ordered puts, want %d", win[0], n, n)
		}
	})
}

// TestOneSidedPersistentPutCPU exercises the register-once/fire-many host
// handle: each Start re-reads the payload slice, and the fires apply in
// order.
func TestOneSidedPersistentPutCPU(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const fires = 8
		job := NewJob(backendConfig(backend, 2, 1))
		win := make([]byte, 4)
		job.SetCPUKernel(func(c *CPUCtx) {
			switch c.Rank() {
			case 0:
				c.Barrier()
				data := []byte{0}
				pp := c.NewPersistentPut(1, 0, 0, data)
				for i := 1; i <= fires; i++ {
					data[0] = byte(i)
					if err := pp.Start(); err != nil {
						t.Errorf("fire %d: %v", i, err)
					}
				}
				pp.Free()
			case 1:
				c.RegisterWindow(0, win)
				c.Barrier()
				c.WinWait(0, fires)
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if win[0] != fires {
			t.Fatalf("window holds %d after %d persistent fires", win[0], fires)
		}
		if rep.OneSidedPuts != fires {
			t.Errorf("report counted %d puts, want %d", rep.OneSidedPuts, fires)
		}
		if rep.PoolAcquires != rep.PoolReleases {
			t.Fatalf("pool leak: %d acquires vs %d releases", rep.PoolAcquires, rep.PoolReleases)
		}
	})
}

// triggeredJob builds the canonical triggered-put workload on a
// 2-node × (1 CPU + 1 GPU slot) cluster — ranks are per-node contiguous,
// so node 0 owns CPU rank 0 and GPU rank 1, node 1 owns CPU rank 2 and
// GPU rank 3. Each GPU fires msgs puts into the REMOTE node's CPU window
// via the descriptor ring; each CPU registers its window and WinWaits.
// No classic mailbox op anywhere, so the monitor has nothing to discover.
// Registration-before-traffic needs no barrier here: the CPU kernels
// register at t=0 while the GPU kernels sit behind the driver's
// kernel-launch latency.
func triggeredJob(t *testing.T, cfg Config, msgs, size int, persistent bool) (*Job, [][]byte) {
	wins := [][]byte{make([]byte, msgs*size), make([]byte, msgs*size)}
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		c.RegisterWindow(0, wins[c.Rank()/2])
		c.WinWait(0, msgs)
	})
	job.SetGPUSetup(func(s *GPUSetup) {
		ptr := s.Dev.Mem().MustAlloc(size)
		s.Args["buf"] = ptr
		if persistent {
			s.Args["pid"] = s.RegisterTrigger(0, 2*(1-s.Node), 0, 0, ptr, size)
		}
	})
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		if g.Block().Idx != 0 {
			return
		}
		dst := 2 * (1 - (g.Rank(0)-1)/2) // GPU on node n targets the CPU on the other node
		ptr := g.Arg("buf").(device.Ptr)
		data := g.Block().Bytes(ptr, size)
		for i := 0; i < msgs; i++ {
			for j := range data {
				data[j] = byte(i + 1)
			}
			if persistent {
				g.TriggerStart(g.Arg("pid").(int))
			} else {
				g.TriggerPut(0, 0, dst, 0, i*size, ptr, size)
				g.TriggerFence(0)
			}
		}
		if persistent {
			g.TriggerDrain(g.Arg("pid").(int))
		}
	})
	return job, wins
}

// TestTriggeredZeroPolls is the tentpole's acceptance test: with the poll
// interval cranked far past the run's duration, a triggered-only workload
// completes with ZERO monitor poll ticks — the monitor simply never fires
// for this traffic, because the descriptor ring bypasses it entirely. The
// same configuration on the classic mailbox path could not finish a
// single message without polling.
func TestTriggeredZeroPolls(t *testing.T) {
	cfg := gpuConfig(2, 1, 1, 1)
	cfg.PollInterval = time.Second // far beyond the virtual run time
	const msgs, size = 5, 64
	job, wins := triggeredJob(t, cfg, msgs, size, false)
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Polls != 0 {
		t.Fatalf("triggered path took %d monitor poll ticks, want 0", rep.Polls)
	}
	if rep.TriggeredOps != 2*msgs {
		t.Fatalf("report counted %d triggered ops, want %d", rep.TriggeredOps, 2*msgs)
	}
	if rep.Elapsed >= cfg.PollInterval {
		t.Fatalf("run took %v — it waited on a poll tick", rep.Elapsed)
	}
	for _, win := range wins {
		for i := 0; i < msgs; i++ {
			if win[i*size] != byte(i+1) {
				t.Fatalf("message %d payload wrong: %d", i, win[i*size])
			}
		}
	}
}

// TestTriggeredBeatsClassicLatency pins the perf claim: a small
// device-sourced message via the descriptor ring completes in less
// virtual time than the same message via the classic mailbox relay
// (which pays up to a poll interval of discovery latency plus the
// comm-thread dispatch).
func TestTriggeredBeatsClassicLatency(t *testing.T) {
	const size = 64

	// Classic: both GPUs send one mailbox message to the remote node's
	// CPU — the exact traffic pattern triggeredJob drives over the
	// descriptor ring.
	classic := func() time.Duration {
		cfg := gpuConfig(2, 1, 1, 1)
		job := NewJob(cfg)
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, size)
			if _, err := c.Recv(AnySource, buf); err != nil {
				t.Error(err)
			}
		})
		job.SetGPUSetup(func(s *GPUSetup) {
			s.Args["buf"] = s.Dev.Mem().MustAlloc(size)
		})
		job.SetGPUKernel(1, 4, func(g *GPUCtx) {
			if g.Block().Idx != 0 {
				return
			}
			dst := 2 * (1 - (g.Rank(0)-1)/2)
			if err := g.Send(0, dst, g.Arg("buf").(device.Ptr), size); err != nil {
				t.Error(err)
			}
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}()

	triggered := func() time.Duration {
		cfg := gpuConfig(2, 1, 1, 1)
		job, _ := triggeredJob(t, cfg, 1, size, false)
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}()

	if triggered >= classic {
		t.Fatalf("triggered %v not faster than classic %v for a %d-byte device-sourced message",
			triggered, classic, size)
	}
}

// TestPersistentTriggerFewerCtlOps pins the register-once/fire-many win:
// the persistent descriptor fires with NO PCIe control trips (the NIC
// already holds the descriptor), so a persistent run must spend strictly
// fewer control operations than the same workload with dynamic
// descriptors (fetch + clear per fire).
func TestPersistentTriggerFewerCtlOps(t *testing.T) {
	const msgs, size = 6, 32
	run := func(persistent bool) Report {
		cfg := gpuConfig(2, 1, 1, 1)
		cfg.PollInterval = time.Second
		job, _ := triggeredJob(t, cfg, msgs, size, persistent)
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	dyn := run(false)
	per := run(true)
	if per.TriggeredOps != 2*msgs || dyn.TriggeredOps != 2*msgs {
		t.Fatalf("triggered ops: dynamic=%d persistent=%d, want %d", dyn.TriggeredOps, per.TriggeredOps, 2*msgs)
	}
	if per.BusCtlOps >= dyn.BusCtlOps {
		t.Fatalf("persistent fires took %d control ops, dynamic took %d — persistence saved nothing",
			per.BusCtlOps, dyn.BusCtlOps)
	}
}

// TestOneSidedCounters pins the obs exports: gpu_polls/gpu_poll_hits
// mirror the report aggregates (satellite: exported into Report.Counters)
// and the one-sided lane's counters and phase histograms are populated by
// a triggered workload.
func TestOneSidedCounters(t *testing.T) {
	cfg := gpuConfig(2, 1, 1, 1)
	cfg.Metrics = true
	const msgs, size = 4, 64
	job, _ := triggeredJob(t, cfg, msgs, size, false)
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Counters["gpu_polls"]; got != int64(rep.Polls) {
		t.Errorf("gpu_polls counter = %d, report says %d", got, rep.Polls)
	}
	if got := rep.Counters["gpu_poll_hits"]; got != int64(rep.PollHits) {
		t.Errorf("gpu_poll_hits counter = %d, report says %d", got, rep.PollHits)
	}
	if got := rep.Counters["onesided_triggered"]; got != 2*msgs {
		t.Errorf("onesided_triggered counter = %d, want %d", got, 2*msgs)
	}
	if got := rep.Counters["onesided_puts"]; got != 0 {
		t.Errorf("onesided_puts counter = %d for a purely triggered run", got)
	}
	if h, ok := rep.Histograms["onesided_trigger_fire_ns"]; !ok || h.Count != 2*msgs {
		t.Errorf("trigger-fire histogram missing or short (ok=%v)", ok)
	}
	if h, ok := rep.Histograms["onesided_remote_complete_ns"]; !ok || h.Count == 0 {
		t.Errorf("remote-complete histogram missing or empty (ok=%v)", ok)
	}
}

// TestOneSidedDeterminism pins the lane's scheduling determinism on the
// simulated backend: a mixed put/get/triggered workload reports identical
// virtual time across runs.
func TestOneSidedDeterminism(t *testing.T) {
	run := func() time.Duration {
		cfg := gpuConfig(2, 1, 1, 1)
		const msgs, size = 3, 128
		job, _ := triggeredJob(t, cfg, msgs, size, false)
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("one-sided runs diverged: %v vs %v", a, b)
	}
}

// TestClassicJobNeverBringsLaneUp is the census that replaced the
// Config switch: a job of CPU and GPU ranks that makes no one-sided call
// ends with no one-sided engine on any node and no descriptor ring or NIC
// doorbell on any device — nothing was built, allocated or spawned for the
// lane, which is why no classic golden can move.
func TestClassicJobNeverBringsLaneUp(t *testing.T) {
	job := NewJob(gpuConfig(2, 1, 1, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		peer := (c.Rank() + 2) % 4 // the other node's CPU rank
		if _, err := c.SendRecv(peer, pattern(64, 1), peer, make([]byte, 64)); err != nil {
			t.Error(err)
		}
		c.Barrier()
	})
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		if g.Block().Idx == 0 {
			g.Barrier(0)
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ns := range job.nodes {
		if ns.osw != nil {
			t.Errorf("node %d: a classic job brought the one-sided engine up", ns.node)
		}
		for _, gt := range ns.gpus {
			if gt.trigQ != nil || gt.trig != nil {
				t.Errorf("device %d.%d: a classic job brought the triggered ring up", ns.node, gt.index)
			}
		}
	}
}

// TestOneSidedFirstUseRace has two CPU kernels of one node make their first
// one-sided calls at the same moment — one registers a window, one puts to
// another node — on the live backend, where they are real goroutines (CI
// runs this package under -race). One lane must result: the window one call
// registered is the one a later put finds, and the other call's ack found
// the same sink.
func TestOneSidedFirstUseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		cfg := backendConfig(transport.BackendLive, 2, 2) // ranks 0,1 on node 0; 2,3 on node 1
		cfg.Reliability.Enabled = true
		job := NewJob(cfg)
		win0, win2 := make([]byte, 1), make([]byte, 1)
		job.SetCPUKernel(func(c *CPUCtx) {
			if c.Rank() == 2 {
				c.RegisterWindow(0, win2)
			}
			c.Barrier()
			switch c.Rank() {
			case 0: // node 0's first call, racing rank 1's
				c.RegisterWindow(0, win0)
			case 1:
				if err := c.Put(2, 0, 0, []byte{7}); err != nil {
					t.Errorf("put: %v", err)
				}
			}
			c.Barrier()
			switch c.Rank() {
			case 0:
				c.WinWait(0, 1)
			case 2:
				c.WinWait(0, 1)
			case 3:
				if err := c.Put(0, 0, 0, []byte{9}); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		})
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if win0[0] != 9 || win2[0] != 7 {
			t.Fatalf("round %d: windows hold %d and %d, want 9 and 7", round, win0[0], win2[0])
		}
	}
}

// putStreamJob builds the smallest origin/target job on cfg (two ranks on
// two nodes): rank 1 exposes win and waits for len(win) puts; rank 0, which
// never registers a window of its own, writes byte i+1 at offset i.
func putStreamJob(t *testing.T, cfg Config, win []byte) *Job {
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		if c.Rank() == 1 {
			c.RegisterWindow(0, win)
		}
		c.Barrier()
		if c.Rank() == 1 {
			c.WinWait(0, len(win))
			return
		}
		for i := range win {
			if err := c.Put(1, 0, i, []byte{byte(i + 1)}); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
	})
	return job
}

// TestOneSidedOriginOnlyNode checks that a node which never registers a
// window still gets its acks: its own first Put brings up the sink they
// arrive at, so reliable puts complete without a retransmission.
func TestOneSidedOriginOnlyNode(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		cfg := backendConfig(backend, 2, 1)
		cfg.Reliability.Enabled = true
		win := make([]byte, 5)
		job := putStreamJob(t, cfg, win)
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(win, []byte{1, 2, 3, 4, 5}) {
			t.Fatalf("window holds %v", win)
		}
		if n := len(job.nodes[0].osw.windows); n != 0 {
			t.Errorf("origin node registered %d windows, want none", n)
		}
		if backend == transport.BackendSim && rep.Retransmits != 0 {
			t.Errorf("%d retransmits on a clean wire: the acks did not find the origin's sink", rep.Retransmits)
		}
	})
}

// TestTriggeredOriginOnlyDevice is the same for a GPU-only node whose first
// one-sided act is a TriggerPut inside the kernel: the device's NIC comes up
// there and pulls the node's lane up with it, so the fence — released by the
// ack, under reliability — returns.
func TestTriggeredOriginOnlyDevice(t *testing.T) {
	const size = 64
	cfg := gpuConfig(2, 0, 0, 0)
	cfg.PerNode = []NodeSpec{{GPUs: 1, SlotsPerGPU: 1}, {CPUKernels: 1}}
	cfg.Reliability.Enabled = true
	job := NewJob(cfg)
	dst := job.Ranks().CPURank(1, 0)
	win := make([]byte, size)
	job.SetCPUKernel(func(c *CPUCtx) {
		c.RegisterWindow(0, win) // at t=0, inside the device's launch latency
		c.WinWait(0, 1)
	})
	job.SetGPUSetup(func(s *GPUSetup) { s.Args["buf"] = s.Dev.Mem().MustAlloc(size) })
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		if g.Block().Idx != 0 {
			return
		}
		ptr := g.Arg("buf").(device.Ptr)
		copy(g.Block().Bytes(ptr, size), pattern(size, 3))
		g.TriggerPut(0, 0, dst, 0, 0, ptr, size)
		g.TriggerFence(0)
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(win, pattern(size, 3)) {
		t.Fatal("triggered put payload wrong")
	}
	if rep.TriggeredOps != 1 || rep.Retransmits != 0 {
		t.Errorf("%d triggered ops, %d retransmits; want 1 and 0", rep.TriggeredOps, rep.Retransmits)
	}
}

// TestOneSidedDeviceWindow drives device memory as a one-sided target
// (GPUSetup.RegisterWindow): a CPU rank on the other node puts a pattern
// into a GPU slot's window, gets it back, and over-runs the window's end by
// 8 bytes. No mailbox transaction happens on the device — its kernel only
// watches the window's last byte for the final put — so every bus transfer
// before teardown is the lane's, through the device arms of osTargetStep's
// put and get.
func TestOneSidedDeviceWindow(t *testing.T) {
	const size = 64
	cfg := gpuConfig(2, 0, 0, 0)
	cfg.PerNode = []NodeSpec{{GPUs: 1, SlotsPerGPU: 1}, {CPUKernels: 1}}
	job := NewJob(cfg)
	target := job.Ranks().GPURank(0, 0, 0)
	first, tail := pattern(size, 3), pattern(16, 0x80)
	want := append(append([]byte(nil), first[:size-8]...), tail[:8]...)
	job.SetGPUSetup(func(s *GPUSetup) {
		ptr := s.Dev.Mem().MustAlloc(size)
		s.Args["buf"] = ptr
		s.RegisterWindow(0, 0, ptr, size)
	})
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		if g.Block().Idx != 0 {
			return
		}
		win := g.Block().Bytes(g.Arg("buf").(device.Ptr), size)
		for i := 0; win[size-1] != want[size-1] && i < 10_000; i++ {
			g.Block().ChargeTime(time.Microsecond)
		}
	})
	job.SetCPUKernel(func(c *CPUCtx) {
		if err := c.Put(target, 0, 0, first); err != nil {
			t.Errorf("put: %v", err)
		}
		back := make([]byte, size)
		if st, err := c.Get(target, 0, 0, back); err != nil || st.Bytes != size || !bytes.Equal(back, first) {
			t.Errorf("get returned %v %+v, payload equal: %v", err, st, bytes.Equal(back, first))
		}
		if err := c.Put(target, 0, size-8, tail); err != nil {
			t.Errorf("over-running put: want nil (target-side clipping), got %v", err)
		}
	})
	var got []byte
	windowTransfers := 0
	job.SetGPUTeardown(func(s *GPUSetup) {
		windowTransfers = s.Bus.Transfers
		got = make([]byte, size)
		s.Dev.CopyOut(s.Proc, s.Bus, s.Args["buf"].(device.Ptr), got)
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("device window holds %x\nwant %x", got, want)
	}
	if rep.OneSidedTruncated != 1 || rep.OneSidedPuts != 2 || rep.OneSidedGets != 1 {
		t.Errorf("%d truncated, %d puts, %d gets; want 1, 2, 1", rep.OneSidedTruncated, rep.OneSidedPuts, rep.OneSidedGets)
	}
	if windowTransfers != 3 || rep.BusTransfers != windowTransfers+1 {
		t.Errorf("%d bus transfers before teardown, %d in all; want one per window operation (3) and teardown's read", windowTransfers, rep.BusTransfers)
	}
}

// TestOneSidedUnregisteredWindowPanics pins the guidance panic for a put
// into a window its target never registered, on a node whose lane is up
// (here the origin's own: its Put brought it up).
func TestOneSidedUnregisteredWindowPanics(t *testing.T) {
	job := NewJob(cpuOnlyConfig(1, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "not registered") {
				t.Errorf("put into an unregistered window: recovered %q, want the registration guidance", msg)
			}
		}()
		_ = c.Put(0, 0, 0, []byte{1})
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOneSidedPutAtUntouchedNode pins what a put does at a node that has
// made no one-sided call: there is no sink to take the frame, so it waits
// in the transport like an unmatched two-sided send, and under reliability
// the put gives up with ErrUnacked. The target's lane stays down.
func TestOneSidedPutAtUntouchedNode(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		cfg := backendConfig(backend, 2, 1)
		cfg.Reliability = Reliability{Enabled: true, AckTimeout: time.Millisecond, MaxRetries: 2}
		job := NewJob(cfg)
		job.SetCPUKernel(func(c *CPUCtx) {
			if c.Rank() == 0 {
				if err := c.Put(1, 0, 0, []byte{1}); !errors.Is(err, ErrUnacked) {
					t.Errorf("put at a node without a sink: %v, want ErrUnacked", err)
				}
			}
			c.Barrier()
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Retransmits != 2 {
			t.Errorf("%d retransmits, want the whole budget of 2", rep.Retransmits)
		}
		if job.nodes[1].osw != nil {
			t.Error("a frame nobody received brought the target's lane up")
		}
	})
}

// TestLiveBackendOneSided smoke-checks the lane on the live transport
// under a shape the conformance loops do not cover: many origins putting
// into one target window concurrently, with real goroutines racing on the
// lane's locks (CI runs this package under -race).
func TestLiveBackendOneSided(t *testing.T) {
	const nodes, putsPer = 4, 8
	cfg := backendConfig(transport.BackendLive, nodes, 1)
	job := NewJob(cfg)
	win := make([]byte, nodes)
	job.SetCPUKernel(func(c *CPUCtx) {
		if c.Rank() == 0 {
			c.RegisterWindow(0, win)
		}
		c.Barrier()
		if c.Rank() != 0 {
			for i := 0; i < putsPer; i++ {
				if err := c.Put(0, 0, c.Rank(), []byte{byte(c.Rank())}); err != nil {
					t.Errorf("rank %d put: %v", c.Rank(), err)
				}
			}
		} else {
			c.WinWait(0, (nodes-1)*putsPer)
		}
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < nodes; r++ {
		if win[r] != byte(r) {
			t.Fatalf("rank %d's byte wrong: %d", r, win[r])
		}
	}
}
