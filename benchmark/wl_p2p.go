package main

import (
	"fmt"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
)

// p2p_small and p2p_large: seeded pairwise SendRecv exchanges on the
// paper's testbed shape, 4 nodes x (2 CPU ranks + 2 GPUs x 1 slot) = 16
// ranks. The two share ranks, pattern and checks and differ only in
// message sizes, so they use the same mpi/core p2p layers differently:
// eager sends and poll/queue hops against rendezvous, PCIe staging and
// large bufpool classes.

var p2pSmall = &workload{
	name: "p2p_small",
	op:   "one DCGN message delivered",
	why:  "0-1024 B exchanges over all Fig. 6 pairings: host time is sim switches, comm-thread hops and GPU polling",
	mix:  mix{sizes: []int{0, 8, 64, 1024}, nodes: 4, procs: 36, gpus: true, memBytes: p2pDeviceMem},
	prepare: func(e env) (repFn, error) {
		return prepareP2P(e, 256, []int{0, 8, 64, 1024})
	},
}

var p2pLarge = &workload{
	name: "p2p_large",
	op:   "one DCGN message delivered",
	why:  "256 KiB-1 MiB exchanges, same ranks: rendezvous, PCIe staging and byte copies, so a sim-kernel change is flat here",
	mix:  mix{sizes: []int{256 << 10, 1 << 20}, nodes: 4, procs: 36, gpus: true, memBytes: p2pDeviceMem},
	prepare: func(e env) (repFn, error) {
		// 64 rounds, not the 16 first planned: at 16, three quarters of
		// the bytes allocated per message were the job's fixed costs
		// (device arenas, the pool filling up), whose size follows the
		// seed's pairings; at 64 the messages' own cost dominates.
		return prepareP2P(e, 64, []int{256 << 10, 1 << 20})
	},
}

// p2pDeviceMem keeps the device arenas small (a send and a receive buffer
// of 1 MiB each fit), so that arena allocation is not what is timed.
const p2pDeviceMem = 4 << 20

func p2pConfig(traced bool) core.Config {
	cfg := core.DefaultConfig() // 4 nodes x (2 CPU + 2 GPU x 1 slot)
	cfg.Device.MemBytes = p2pDeviceMem
	cfg.Trace, cfg.Flows, cfg.Metrics = traced, traced, traced
	return cfg
}

func prepareP2P(e env, rounds int, sizes []int) (repFn, error) {
	if e.quick {
		rounds = 6
	}
	in := genP2P(e.seed, core.NewJob(p2pConfig(false)).Ranks(), rounds, sizes)
	return func(traced bool) (outcome, error) { return runP2P(in, traced) }, nil
}

// runP2P runs the schedule once: every rank exchanges with its peer round
// by round, folds what it receives into a digest, and joins a barrier
// every p2pBarrierEvery rounds.
func runP2P(in *p2pInputs, traced bool) (outcome, error) {
	cfg := p2pConfig(traced)
	job := core.NewJob(cfg)
	ranks := len(in.expect)
	got := make([]uint64, ranks)
	bad := make([]int, ranks) // exchanges that failed or delivered a wrong length, per rank
	// Rank 0 reads the host clock eight times on its way: checkpoints of
	// the deterministic schedule (workload.go, outcome.marks).
	var marks []time.Duration
	start, markEvery := time.Now(), max(in.rounds/8, 1)

	job.SetCPUKernel(func(c *core.CPUCtx) {
		me, d := c.Rank(), fnvOffset
		recv := make([]byte, in.maxSize)
		for r := 0; r < in.rounds; r++ {
			ex := in.sched[r][me]
			st, err := c.SendRecv(ex.peer, in.payload[ex.sendOff:ex.sendOff+ex.sendLen], ex.peer, recv[:ex.recvLen])
			if err != nil || st.Bytes != ex.recvLen || st.Source != ex.peer {
				bad[me]++
			}
			d = fold(d, recv[:ex.recvLen])
			if me == 0 && (r+1)%markEvery == 0 {
				marks = append(marks, time.Since(start))
			}
			if (r+1)%p2pBarrierEvery == 0 {
				c.Barrier()
			}
		}
		got[me] = d
	})
	job.SetGPUSetup(func(s *core.GPUSetup) {
		s.Args["send"] = s.Dev.Mem().MustAlloc(max(in.maxSize, 1))
		s.Args["recv"] = s.Dev.Mem().MustAlloc(max(in.maxSize, 1))
	})
	job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
		me, d := g.Rank(0), fnvOffset
		send, recv := g.Arg("send").(device.Ptr), g.Arg("recv").(device.Ptr)
		for r := 0; r < in.rounds; r++ {
			ex := in.sched[r][me]
			copy(g.Block().Bytes(send, ex.sendLen), in.payload[ex.sendOff:])
			st, err := g.SendRecv(0, ex.peer, send, ex.sendLen, ex.peer, recv, ex.recvLen)
			if err != nil || st.Bytes != ex.recvLen || st.Source != ex.peer {
				bad[me]++
			}
			d = fold(d, g.Block().Bytes(recv, ex.recvLen))
			if (r+1)%p2pBarrierEvery == 0 {
				g.Barrier(0)
			}
		}
		got[me] = d
	})

	rep, err := job.Run()
	if err != nil {
		return outcome{}, fmt.Errorf("p2p: %w", err)
	}
	o := outcome{ops: in.messages(), virtNs: rep.Elapsed.Nanoseconds(), digest: fnvOffset, marks: marks}
	for rank, d := range got {
		o.digest = (o.digest ^ d) * fnvPrime
		o.fail("an exchange failed or reported a wrong source or length", bad[rank])
		if d != in.expect[rank] {
			// Some message of this rank was wrong; which one is unknown, so
			// all of its receives count.
			o.fail("a rank's payload digest is wrong", in.rounds-bad[rank])
		}
	}
	if rep.PoolAcquires != rep.PoolReleases {
		o.fail(poolLeak, 1)
	}
	o.counts.add(rep, cfg.Nodes*cfg.GPUs)
	return o, nil
}
