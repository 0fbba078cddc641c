package core

import (
	"fmt"
	"reflect"
	"testing"

	"dcgn/internal/device"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
	"dcgn/internal/transport/simmpi"
)

// blockInPlace is a Config.WrapTransport middleware whose forms drive the
// inner op to its end in place and report it done — the live backend's
// contract, run deterministically under the simulator. Its job hosts every
// step machine on a stackful proc (Job.stackful), which such forms need.
type blockInPlace struct{ transport.Transport }

func (b blockInPlace) SendStep(p transport.Proc, op *transport.SendOp) (bool, error) {
	for {
		if done, err := b.Transport.SendStep(p, op); done {
			return true, err
		}
		p.(*sim.Proc).Await()
	}
}

func (b blockInPlace) RecvStep(p transport.Proc, op *transport.RecvOp) (bool, error) {
	for {
		if done, err := b.Transport.RecvStep(p, op); done {
			return true, err
		}
		p.(*sim.Proc).Await()
	}
}

func (b blockInPlace) CollectiveStep(p transport.Proc, op *transport.CollOp) (bool, error) {
	return true, transport.Collective(p, b.Transport, op)
}

// stepHostJob is one cell of TestStepHostsAgree: two nodes on two shards
// exchanging size-byte messages between CPU ranks or GPU slots — a
// ping-pong, then a combined exchange — and, between CPU ranks, a one-sided
// get that the target answers from an os-rep helper.
func stepHostJob(t *testing.T, gpu, reliable, faulty, flows bool, size int) *Job {
	cfg := cpuOnlyConfig(2, 1)
	if gpu {
		cfg = gpuConfig(2, 0, 1, 1)
	}
	cfg.Shards = 2
	cfg.Reliability.Enabled = reliable
	if faulty {
		cfg.Faults = faults.Config{Seed: 11, Drop: 0.1, Dup: 0.1, Reorder: 0.1, Delay: 0.1}
	}
	cfg.Trace, cfg.Flows = true, flows
	job := NewJob(cfg)
	const reps = 3
	if gpu {
		job.SetGPUSetup(func(s *GPUSetup) {
			s.Args["a"] = s.Dev.Mem().MustAlloc(size)
			s.Args["b"] = s.Dev.Mem().MustAlloc(size)
		})
		job.SetGPUKernel(1, 4, func(g *GPUCtx) {
			if g.Block().Idx != 0 {
				return
			}
			a, b, peer := g.Arg("a").(device.Ptr), g.Arg("b").(device.Ptr), 1-g.Rank(0)
			for i := 0; i < reps; i++ {
				if g.Rank(0) == 0 {
					check(t, g.Send(0, peer, a, size))
					_, err := g.Recv(0, peer, a, size)
					check(t, err)
				} else {
					_, err := g.Recv(0, peer, a, size)
					check(t, err)
					check(t, g.Send(0, peer, a, size))
				}
			}
			_, err := g.SendRecv(0, peer, a, size, peer, b, size)
			check(t, err)
		})
		return job
	}
	job.SetCPUKernel(func(c *CPUCtx) {
		buf, win, got := pattern(size, byte(c.Rank())), pattern(size, byte(7+c.Rank())), make([]byte, size)
		peer := 1 - c.Rank()
		c.RegisterWindow(0, win)
		c.Barrier()
		for i := 0; i < reps; i++ {
			if c.Rank() == 0 {
				check(t, c.Send(peer, buf))
				_, err := c.Recv(peer, buf)
				check(t, err)
			} else {
				_, err := c.Recv(peer, buf)
				check(t, err)
				check(t, c.Send(peer, buf))
			}
		}
		_, err := c.SendRecvReplace(peer, peer, buf)
		check(t, err)
		_, err = c.Get(peer, 0, 0, got)
		check(t, err)
		c.Barrier()
	})
	return job
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

// jobStats sums a finished job's counters over its nodes' simulators.
func jobStats(j *Job) sim.Stats {
	seen := map[*sim.Sim]bool{}
	var st sim.Stats
	for _, ns := range j.nodes {
		if !seen[ns.sim] {
			seen[ns.sim] = true
			st.Add(ns.sim.Stats())
		}
	}
	return st
}

// hostsAgree runs two copies of the job mk makes, one on stackless procs
// and one whose step machines are hosted on stackful procs that block in
// each form (blockInPlace, Job.stackful), and checks they report alike;
// the kinds named must run as steps on the first host and be resumed on
// the second. PoolHits, a host-side count of which shard's thread reached
// the shared pool first, is set apart.
func hostsAgree(t *testing.T, mk func() *Job, kinds ...string) {
	t.Helper()
	stackless, blocking := mk(), mk()
	blocking.cfg.WrapTransport = func(tr transport.Transport) transport.Transport { return blockInPlace{tr} }
	blocking.stackful = true
	want, err := stackless.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := blocking.Run()
	if err != nil {
		t.Fatal(err)
	}
	got.PoolHits = want.PoolHits
	if !reflect.DeepEqual(got, want) {
		t.Errorf("blocking host reports differently:\n%+v\nstackless host:\n%+v", got, want)
	}
	for _, kind := range kinds {
		if k := jobStats(stackless).Kinds[kind]; k.Resumes != 0 || k.Steps == 0 {
			t.Errorf("stackless host: %s %+v, want steps and no resumes", kind, k)
		}
		if k := jobStats(blocking).Kinds[kind]; k.Resumes == 0 || k.Steps != 0 {
			t.Errorf("blocking host: %s %+v, want resumes and no steps", kind, k)
		}
	}
}

// TestStepHostsAgree runs every step machine the engine hosts — dcgn-tx,
// the lane receivers, the comm thread and its collectives, rel-ack,
// os-rep, the retransmit timer and the sendrecv join — on both of its
// simulated hosts: stackless procs, and stackful ones that block in each
// form because a Config.WrapTransport hook's forms block in place
// (blockInPlace). One body on two hosts is one schedule: the Reports,
// traces and critical paths included, must be reflect.DeepEqual, across
// reliability, faults, eager and rendezvous sizes, CPU and GPU endpoints
// and flows; and so for every collective kind, flat and tree, for the
// device-model daemons (a GPU's doorbell, its NIC's triggered put), which
// are stackless on both, and for a one-sided put. Each job runs on two
// shards, so under the race detector (make race) the bodies run on two
// threads.
func TestStepHostsAgree(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		for _, faulty := range []bool{false, true} {
			for _, size := range []int{8, 64 << 10} {
				for _, gpu := range []bool{false, true} {
					for _, flows := range []bool{false, true} {
						name := fmt.Sprintf("reliable=%t/faults=%t/%dB/gpu=%t/flows=%t", reliable, faulty, size, gpu, flows)
						t.Run(name, func(t *testing.T) {
							hostsAgree(t, func() *Job { return stepHostJob(t, gpu, reliable, faulty, flows, size) }, "dcgn-tx", "mpi-recv", "comm")
						})
					}
				}
			}
		}
	}
	for _, tree := range []bool{false, true} {
		t.Run(fmt.Sprintf("collectives/tree=%t", tree), func(t *testing.T) {
			hostsAgree(t, func() *Job { return collHostJob(t, tree) }, "comm")
		})
	}
	t.Run("gpu-signal", func(t *testing.T) {
		hostsAgree(t, func() *Job {
			job := stepHostJob(t, true, false, false, false, 64)
			job.cfg.FutureHW.DeviceSignal = true
			return job
		}, "comm", "dcgn-tx")
	})
	t.Run("triggered-put", func(t *testing.T) {
		hostsAgree(t, func() *Job { return putHostJob(t, true) }, "os-recv", "gpu-nic")
	})
	t.Run("onesided-put", func(t *testing.T) {
		hostsAgree(t, func() *Job { return putHostJob(t, false) }, "os-recv")
	})
}

// collHostJob is TestStepHostsAgree's collectives cell: three nodes of two
// CPU ranks each run every collective kind — with a broadcast past the
// tree broadcast's scatter–allgather switch — on flat or tree MPI
// collectives.
func collHostJob(t *testing.T, tree bool) *Job {
	cfg := cpuOnlyConfig(3, 2)
	cfg.Shards, cfg.MPI.TreeCollectives = 2, tree
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		const chunk = 24
		n := c.Size()
		c.Barrier()
		for _, size := range []int{64, 20 << 10} {
			buf := pattern(size, byte(c.Rank()))
			check(t, c.Bcast(1, buf))
		}
		var all []byte
		if c.Rank() == 2 {
			all = make([]byte, n*chunk)
		}
		check(t, c.Gather(2, pattern(chunk, byte(c.Rank())), all))
		check(t, c.Scatter(2, all, make([]byte, chunk)))
		check(t, c.AllToAll(pattern(n*chunk, byte(c.Rank())), make([]byte, n*chunk)))
	})
	return job
}

// putHostJob is TestStepHostsAgree's one-sided cell: puts into a CPU
// window on the other node, made by a CPU rank or fired by a GPU's NIC
// from its descriptor ring (triggered).
func putHostJob(t *testing.T, triggered bool) *Job {
	const size, puts = 256, 3
	cfg := cpuOnlyConfig(2, 1)
	if triggered {
		cfg = gpuConfig(2, 1, 1, 1)
	}
	cfg.Shards = 2
	job := NewJob(cfg)
	rm := job.Ranks()
	dst := rm.CPURank(1, 0)
	job.SetCPUKernel(func(c *CPUCtx) {
		if c.Rank() == dst {
			c.RegisterWindow(0, make([]byte, puts*size))
		}
		if !triggered {
			c.Barrier()
			if c.Rank() != dst {
				for i := 0; i < puts; i++ {
					check(t, c.Put(dst, 0, i*size, pattern(size, byte(i))))
				}
			}
		}
		if c.Rank() == dst {
			c.WinWait(0, puts)
		}
	})
	if triggered {
		job.SetGPUSetup(func(s *GPUSetup) { s.Args["buf"] = s.Dev.Mem().MustAlloc(size) })
		job.SetGPUKernel(1, 4, func(g *GPUCtx) {
			if g.Block().Idx != 0 || g.Rank(0) != rm.GPURank(0, 0, 0) {
				return
			}
			for i := 0; i < puts; i++ {
				g.TriggerPut(0, 0, dst, 0, i*size, g.Arg("buf").(device.Ptr), size)
				g.TriggerFence(0)
			}
		})
	}
	return job
}

// TestStacklessReceiverUnpostsOnKill: a node's stackless lane receiver,
// parked in its MPI receive, gives the receive back when it is killed — by
// a Group.Kill and by the end of the run — as a stackful receiver's
// unwinding does, through sim.Dropper.
func TestStacklessReceiverUnpostsOnKill(t *testing.T) {
	for _, killer := range []string{"Group.Kill", "shutdown"} {
		t.Run(killer, func(t *testing.T) {
			cfg := DefaultConfig()
			sub := newSubstrate(1, cfg.Net, cfg.MPI, 1, 0)
			s := sub.loop.Shard(0).Sim()
			rank := sub.world.Rank(0)
			lane := &relLane{ns: &nodeState{tr: simmpi.WorldGroup(sub.world).Endpoint(0)}}
			g := s.NewGroup(func() {})
			s.InGroup(g, func() { s.SpawnStepDaemon("mpi-recv", 0, stepArg, lane) })
			s.Spawn("killer", func(p *sim.Proc) {
				p.Sleep(10 * cfg.MPI.CallOverhead)
				if rank.Posted() != 1 {
					t.Errorf("%d receives posted before the kill, want the receiver's", rank.Posted())
				}
				if killer == "Group.Kill" {
					s.Inject(g.Kill)
					p.Sleep(10 * cfg.MPI.CallOverhead)
					if n := rank.Posted(); n != 0 {
						t.Errorf("%d receives left posted after Group.Kill", n)
					}
				}
			})
			if err := sub.loop.Run(); err != nil {
				t.Fatal(err)
			}
			if n := rank.Posted(); n != 0 {
				t.Errorf("%d receives left posted after the run", n)
			}
		})
	}
}
