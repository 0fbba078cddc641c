package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/transport"
)

// reuseKinds are the tenants TestRuntimeSimEngineReuse streams through one
// runtime, each what a node engine may be left holding by its last tenant
// or must start without: a second kernel's local traffic on one node,
// unexpected messages parked in the matching index at the job's end (with
// metrics on, which read the index's peak), a collective over four nodes,
// GPU monitors and PCIe staging beside CPU kernels, and a reliable lane
// with drops, duplicates and reordering (lossyJob), whose sequence numbers
// start again at zero on every node pair.
var reuseKinds = []struct {
	name string
	mk   func(t *testing.T) *Job
}{
	{"one-node", func(*testing.T) *Job { return localExchangeJob() }},
	{"unexpected", func(*testing.T) *Job { return unexpectedJob() }},
	{"collective", func(*testing.T) *Job { return collectiveJob() }},
	{"cpu+gpu", cpuGPUJob},
	{"lossy", func(*testing.T) *Job { return lossyJob(transport.BackendSim) }},
}

// TestRuntimeSimEngineReuse streams tenants of every reuseKinds kind, and a
// tenant canceled in the middle of a rendezvous send, through a 4-node
// simulated runtime whose nodes give their progress engines from tenant to
// tenant. Every kind must take over an engine from every kind, itself
// included, and every tenant that finishes must report exactly what its
// solo Job.Run reports: whatever a reset engine kept from its last tenant
// — a match peak, a wire sequence, an intake count, a parked message —
// shows in the next one's Report. The engines are bounded by the nodes, not
// the tenants: at most two a node are ever made, and once the batch is
// over every one is back on its node's list.
func TestRuntimeSimEngineReuse(t *testing.T) {
	const nodes = 4
	solo := make([]Report, len(reuseKinds))
	for k, kind := range reuseKinds {
		rep, err := kind.mk(t).Run()
		if err != nil {
			t.Fatalf("%s solo: %v", kind.name, err)
		}
		solo[k] = rep
	}
	if solo[1].PeakPending < 4 || solo[4].Retransmits == 0 || solo[3].Polls == 0 {
		t.Fatalf("solo runs: peak %d, %d retransmits, %d polls; test is vacuous", solo[1].PeakPending, solo[4].Retransmits, solo[3].Polls)
	}

	rc := runtimeConfig(transport.BackendSim, nodes)
	rc.MaxQueue = 256
	r, err := NewRuntime(rc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The victim holds nodes 0 and 1 with a 1 MiB send its peer never
	// receives; it is canceled when a quick job on nodes 2 and 3 ends, and
	// the tenants queued behind it take over its engines.
	victimJob := rendezvousVictimJob()
	victim, err := r.Submit(victimJob, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	quick, err := r.Submit(pingPongJob(transport.BackendSim, 2), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Every kind after every kind: each pair a, b is submitted as a, b, a,
	// a, b, b. Where each lands is the runtime's to choose, so the engines'
	// own histories are what the coverage check reads. They arrive once the
	// victim's frame has left its node's NIC: a frame a canceled tenant
	// left on the wire still delays its successor, engines reused or not.
	kindOf, jobs, handles := map[int]int{}, map[int]*Job{}, map[int]*JobHandle{}
	for a := range reuseKinds {
		for b := range reuseKinds {
			for _, k := range []int{a, b, a, a, b, b} {
				job := reuseKinds[k].mk(t)
				h, err := r.SubmitAt(job, SubmitOpts{}, 2*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				kindOf[h.ID()], jobs[h.ID()], handles[h.ID()] = k, job, h
			}
		}
	}
	// lastUser is the kind of each engine's last tenant, or -1 for the
	// victim; took counts the (previous kind, next kind) hand-overs.
	lastUser := map[*nodeState]int{}
	took := map[[2]int]int{}
	engineOf := func(job *Job, kind int) {
		for _, ns := range job.nodes {
			if prev, ok := lastUser[ns]; ok {
				took[[2]int{prev, kind}]++
			}
			lastUser[ns] = kind
		}
	}
	var cancelErr error
	r.SetOnJobDone(func(st JobStatus) { // sim context; the engines go back at the next event boundary
		switch st.ID {
		case quick.ID():
			engineOf(victimJob, -1)
			cancelErr = r.Cancel(victim.ID())
		case victim.ID(): // its engines were read as it was canceled
		default:
			engineOf(jobs[st.ID], kindOf[st.ID])
		}
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if cancelErr != nil {
		t.Fatal(cancelErr)
	}
	if _, err := victim.Wait(); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("victim: err=%v, want ErrJobCanceled", err)
	}
	for id, k := range kindOf {
		rep, err := handles[id].Wait()
		if err != nil {
			t.Errorf("job %d (%s): %v", id, reuseKinds[k].name, err)
			continue
		}
		if !reflect.DeepEqual(rep, solo[k]) {
			t.Errorf("job %d (%s) on reused engines reports differently from its solo run:\n%+v\n%+v", id, reuseKinds[k].name, rep, solo[k])
		}
	}
	for prev := range reuseKinds {
		for next := range reuseKinds {
			if took[[2]int{prev, next}] == 0 {
				t.Errorf("no %s tenant took over an engine from a %s one", reuseKinds[next].name, reuseKinds[prev].name)
			}
		}
	}
	victimTaken := 0
	for next := range reuseKinds {
		victimTaken += took[[2]int{-1, next}]
	}
	if victimTaken == 0 {
		t.Error("no tenant took over the canceled victim's engines")
	}
	rec := r.sub.loop.Shard(0).Sim().Stats().Recycled
	st := rec["node-engine"]
	t.Logf("node engines: %+v", st)
	if st.Gets <= st.Fresh || st.Fresh > 2*nodes || st.Held() != 0 {
		t.Errorf("node engines: %d taken, %d made, %d held at the end; want more taken than made, at most %d made, none held",
			st.Gets, st.Fresh, st.Held(), 2*nodes)
	}
	// The rest of a tenant's shell comes and goes with its engines: its
	// kernels' contexts, its transport group, its pool and its metrics.
	for _, kind := range []string{"cpu-ctx", "tenant-group", "job-pool", "job-metrics"} {
		st := rec[kind]
		t.Logf("%s: %+v", kind, st)
		if st.Gets <= st.Fresh || st.Held() != 0 {
			t.Errorf("%s: %d taken, %d made, %d held at the end; want more taken than made, none held", kind, st.Gets, st.Fresh, st.Held())
		}
	}
}

// localExchangeJob is a 1-node job of two CPU kernels bouncing a payload
// through the node's own matching index.
func localExchangeJob() *Job {
	job := NewJob(backendConfig(transport.BackendSim, 1, 2))
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 96)
		for i := 0; i < 3; i++ {
			if _, err := c.SendRecvReplace(1-c.Rank(), 1-c.Rank(), buf); err != nil {
				panic(err)
			}
		}
	})
	return job
}

// unexpectedJob is a 2-node job, metrics on, whose rank 0 sends six
// messages of which rank 1 receives two: four stay parked as unexpected in
// node 1's matching index when the job ends.
func unexpectedJob() *Job {
	cfg := backendConfig(transport.BackendSim, 2, 1)
	cfg.Metrics = true
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 64)
		for i := 0; i < 6; i++ {
			if c.Rank() == 0 {
				c.Send(1, buf)
			} else if i < 2 {
				c.Recv(0, buf)
			}
		}
		if c.Rank() == 1 {
			c.Compute(time.Millisecond) // the rest arrive, and wait
		}
	})
	return job
}

// collectiveJob is a 4-node job of two CPU kernels a node running a
// broadcast, a gather and a barrier.
func collectiveJob() *Job {
	job := NewJob(backendConfig(transport.BackendSim, 4, 2))
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 256)
		if c.Rank() == 3 {
			buf[0] = 7
		}
		if err := c.Bcast(3, buf); err != nil || buf[0] != 7 {
			panic(fmt.Sprintf("bcast: %v, got %d", err, buf[0]))
		}
		var all []byte
		if c.Rank() == 0 {
			all = make([]byte, 32*c.Size())
		}
		if err := c.Gather(0, buf[:32], all); err != nil {
			panic(err)
		}
		c.Barrier()
	})
	return job
}

// cpuGPUJob is a 2-node job with a CPU kernel and a GPU on each node: the
// CPU ranks exchange through the host path while the GPU slots ping-pong
// through the mailbox and PCIe staging.
func cpuGPUJob(t *testing.T) *Job {
	cfg := gpuConfig(2, 1, 1, 1)
	cfg.Device.MemBytes = 256 << 10
	job := NewJob(cfg)
	rm := job.Ranks()
	cpu := [2]int{rm.CPURank(0, 0), rm.CPURank(1, 0)}
	gpu := [2]int{rm.GPURank(0, 0, 0), rm.GPURank(1, 0, 0)}
	job.SetCPUKernel(func(c *CPUCtx) {
		peer := cpu[1-c.Node()]
		if _, err := c.SendRecvReplace(peer, peer, make([]byte, 512)); err != nil {
			t.Error(err)
		}
	})
	const n = 64
	job.SetGPUSetup(func(s *GPUSetup) { s.Args["buf"] = s.Dev.Mem().MustAlloc(n) })
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		if g.Block().Idx != 0 {
			return
		}
		ptr := g.Arg("buf").(device.Ptr)
		me := 0
		if g.Rank(0) == gpu[1] {
			me = 1
		}
		peer := gpu[1-me]
		for i := 0; i < 3; i++ {
			var err error
			if me == 0 {
				if err = g.Send(0, peer, ptr, n); err == nil {
					_, err = g.Recv(0, peer, ptr, n)
				}
			} else if _, err = g.Recv(0, peer, ptr, n); err == nil {
				err = g.Send(0, peer, ptr, n)
			}
			if err != nil {
				t.Error(err)
			}
		}
	})
	return job
}

// rendezvousVictimJob is a 2-node job whose rank 0 sends 1 MiB, past the
// eager limit, to rank 1, which computes for an hour before it would
// receive: the send waits in its rendezvous until the job is canceled.
func rendezvousVictimJob() *Job {
	job := NewJob(backendConfig(transport.BackendSim, 2, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 1<<20)
		if c.Rank() == 0 {
			c.Send(1, buf)
		} else {
			c.Compute(time.Hour)
			c.Recv(0, buf)
		}
	})
	return job
}
