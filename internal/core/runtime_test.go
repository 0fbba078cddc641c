package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// Multi-tenant Runtime: admission control, weighted fair sharing, and —
// the property everything else rests on — per-job isolation over the
// shared backend: co-resident tenants must not share buffer-pool
// counters, metrics registries, reliability sequence spaces, or traffic.

// runtimeConfig returns a Runtime substrate on the given backend.
func runtimeConfig(backend string, nodes int) RuntimeConfig {
	return RuntimeConfig{
		Nodes:          nodes,
		Transport:      transport.Config{Backend: backend},
		MaxVirtualTime: 30 * time.Second,
	}
}

// pingPongJob builds a 2-node, 1-kernel-per-node job bouncing a payload
// reps times.
func pingPongJob(backend string, reps int) *Job {
	job := NewJob(backendConfig(backend, 2, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 256)
		for i := 0; i < reps; i++ {
			switch c.Rank() {
			case 0:
				c.Send(1, buf)
				c.Recv(1, buf)
			case 1:
				c.Recv(0, buf)
				c.Send(0, buf)
			}
		}
		c.Barrier()
	})
	return job
}

// checkTenantReportInvariant asserts the NodeStats-sum-to-Report
// invariant for one tenant's report in isolation: every aggregate equals
// the sum of that job's own per-node entries.
func checkTenantReportInvariant(t *testing.T, label string, rep Report, wantNodes int) {
	t.Helper()
	if len(rep.Nodes) != wantNodes {
		t.Fatalf("%s: %d node entries, want %d", label, len(rep.Nodes), wantNodes)
	}
	var req int
	var local, wire, retr, dup, acksS, acksR int64
	for _, st := range rep.Nodes {
		if st.RequestsHandled != int(st.LocalRequests+st.WireMessages) {
			t.Errorf("%s node %d: handled %d != local %d + wire %d",
				label, st.Node, st.RequestsHandled, st.LocalRequests, st.WireMessages)
		}
		req += st.RequestsHandled
		local += st.LocalRequests
		wire += st.WireMessages
		retr += st.Retransmits
		dup += st.DupWireFrames
		acksS += st.AcksSent
		acksR += st.AcksReceived
	}
	if req != rep.Requests {
		t.Errorf("%s: node sum %d != aggregate Requests %d", label, req, rep.Requests)
	}
	if retr != rep.Retransmits || dup != rep.DupWireFrames ||
		acksS != rep.AcksSent || acksR != rep.AcksReceived {
		t.Errorf("%s: reliability aggregates do not match node sums", label)
	}
	if rep.PoolAcquires != rep.PoolReleases {
		t.Errorf("%s: pool leak: %d acquires, %d releases",
			label, rep.PoolAcquires, rep.PoolReleases)
	}
}

// engineHost names one way of hosting a job's engine: Job.Run on a
// substrate of its own, of however many shards, or a Runtime of one, on
// either backend.
type engineHost struct {
	name    string
	backend string // "" = simulated
	runtime bool
	shards  int // Job.Run on the simulated backend: overrides the job's own
}

// engineHosts is every host the one engine bring-up runs under, the
// simulated ones first.
var engineHosts = []engineHost{
	{name: "Job.Run"},
	{name: "Job.Run/4-shards", shards: 4},
	{name: "Runtime/sim", runtime: true},
	{name: "Runtime/live", backend: transport.BackendLive, runtime: true},
	{name: "Job.Run/live", backend: transport.BackendLive},
}

// runOnHost runs the job mk builds for the host's backend to completion
// under the given host and returns its Report.
func runOnHost(t *testing.T, h engineHost, mk func(backend string) *Job) Report {
	t.Helper()
	backend := h.backend
	if backend == "" {
		backend = transport.BackendSim
	}
	job := mk(backend)
	if !h.runtime {
		if h.shards > 0 {
			job.cfg.Shards = min(h.shards, job.cfg.Nodes)
		}
		rep, err := job.Run()
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		return rep
	}
	r, err := NewRuntime(runtimeConfig(backend, job.Config().Nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hd, err := r.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatalf("%s: %v", h.name, err)
	}
	if backend == transport.BackendSim {
		if err := r.Run(); err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
	}
	rep, err := hd.Wait()
	if err != nil {
		t.Fatalf("%s: %v", h.name, err)
	}
	return rep
}

// putsInFlightJob builds a 2-node job that ends with its four Puts still on
// the wire: the origin's Put returns at origin-side completion and its
// kernel with it, the target never waits for them.
func putsInFlightJob(t *testing.T, cfg Config) *Job {
	win := make([]byte, 4)
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		if c.Rank() == 1 {
			c.RegisterWindow(0, win)
		}
		c.Barrier()
		for i := 0; c.Rank() == 0 && i < len(win); i++ {
			if err := c.Put(1, 0, i, []byte{byte(i + 1)}); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
	})
	return job
}

// lossyJob is a 24-round ping-pong over a wire that drops, duplicates and
// reorders, with the reliability layer on to hide it.
func lossyJob(backend string) *Job {
	cfg := backendConfig(backend, 2, 1)
	cfg.Reliability.Enabled = true
	cfg.Faults = faults.Config{Seed: 3, Drop: 0.12, Dup: 0.08, Reorder: 0.08}
	job := NewJob(cfg)
	job.SetCPUKernel(pingPongJob(backend, 24).cpuKernel)
	return job
}

// TestSameEngineOnEveryHost runs one job of every kind under every host:
// the engine brought up is the same one whoever hosts it, which is the
// invariant that lets a substrate be retired rather than a copy of the
// bring-up. The simulated hosts — Job.Run on one shard and on four, a
// Runtime of one — must return the same Report, reflect.DeepEqual: Elapsed
// to the nanosecond with frames still in flight at the job's end, every
// retransmit and duplicate of a lossy wire, every poll tick of a GPU job's
// monitors, every draw of a jittered job's noise, pool and wire totals. Two fields are set apart, neither a
// virtual-time number. PoolHits on four shards: which of two shards' threads
// reached the shared pool first decides whether a Get reuses the other's
// Put. PoolReleases of the one row that quits with frames on the wire: no
// host gets all their staging back, and a Runtime, which kills the job's
// sink at its end where a solo run's lives on to the end of the run, gets
// back less (7 and 8 of 10 acquires). The live hosts, where GPUs, Shards
// and virtual time do not exist, are held to the backend-independent fields:
// Elapsed is wall time there and the live wire carries no MPI envelopes.
func TestSameEngineOnEveryHost(t *testing.T) {
	rows := []struct {
		name     string
		simOnly  bool
		inFlight bool // quits with frames on the wire: PoolReleases is host-dependent
		mk       func(backend string) *Job
	}{
		{name: "pingpong", mk: func(backend string) *Job { return pingPongJob(backend, 8) }},
		{name: "collective", mk: func(backend string) *Job {
			job := NewJob(backendConfig(backend, 4, 2))
			job.SetCPUKernel(func(c *CPUCtx) {
				buf := make([]byte, 512)
				all := make([]byte, 512*c.Size())
				c.Barrier()
				c.Bcast(0, buf)
				c.Gather(0, buf, all)
				c.SendRecvReplace((c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size(), buf)
				c.AllToAll(all, make([]byte, len(all)))
			})
			return job
		}},
		// Fails at the parent commit: a solo run's Elapsed ran on to the last
		// Put's delivery, 34.612 us against a tenant's 32.912.
		{name: "puts-in-flight", inFlight: true, mk: func(backend string) *Job { return putsInFlightJob(t, backendConfig(backend, 2, 1)) }},
		// Refused by Submit at the parent commit, twice over.
		{name: "lossy-sharded", simOnly: true, mk: func(backend string) *Job {
			job := lossyJob(backend)
			job.cfg.Shards = 2
			return job
		}},
		{name: "gpu-polling", simOnly: true, mk: func(string) *Job { return gpuPingPongJob(t, 3) }},
		{name: "gpu-triggered", simOnly: true, mk: func(string) *Job {
			cfg := gpuConfig(2, 1, 1, 1)
			cfg.Device.MemBytes = 256 << 10
			job, _ := triggeredJob(t, cfg, 3, 64, false)
			return job
		}},
		// Refused at the parent commit by Job.Run on four shards and by Submit.
		{name: "jittered", simOnly: true, mk: func(string) *Job { return jitteredJob(t, 0.25, 7, 2) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var ref Report
			for i, h := range engineHosts {
				if row.simOnly && h.backend != "" {
					continue
				}
				rep := runOnHost(t, h, row.mk)
				if row.inFlight {
					if h.backend == "" && rep.PoolReleases >= rep.PoolAcquires {
						t.Fatalf("%s: every buffer came back; nothing was in flight at the job's end", h.name)
					}
					rep.PoolReleases = rep.PoolAcquires
				}
				checkTenantReportInvariant(t, h.name, rep, len(rep.Nodes))
				if rep.Requests == 0 && rep.TriggeredOps == 0 {
					t.Fatalf("%s: no requests handled; test is vacuous", h.name)
				}
				if i == 0 {
					ref = rep
					continue
				}
				if h.backend == "" {
					if h.shards > 1 {
						rep.PoolHits = ref.PoolHits
					}
					if !reflect.DeepEqual(rep, ref) {
						t.Errorf("%s and %s report differently:\n%+v\n%+v", h.name, engineHosts[0].name, rep, ref)
					}
					continue
				}
				if rep.Requests != ref.Requests || len(rep.Nodes) != len(ref.Nodes) {
					t.Fatalf("%s: %d requests on %d nodes, %s had %d on %d",
						h.name, rep.Requests, len(rep.Nodes), engineHosts[0].name, ref.Requests, len(ref.Nodes))
				}
				for n, st := range rep.Nodes {
					if st.LocalRequests != ref.Nodes[n].LocalRequests || st.WireMessages != ref.Nodes[n].WireMessages {
						t.Errorf("%s node %d: local/wire %d/%d, %s had %d/%d", h.name, n,
							st.LocalRequests, st.WireMessages, engineHosts[0].name,
							ref.Nodes[n].LocalRequests, ref.Nodes[n].WireMessages)
					}
				}
			}
		})
	}
}

// TestRuntimeSimBatchIsolation runs two identical jobs concurrently on a
// shared simulated runtime and pins their Reports against a solo run of
// the same job, reflect.DeepEqual: neither tenant observed the other's
// existence, and sharing the runtime cost neither one nanosecond of virtual
// time. The job has a rendezvous-size send and a collective, so the wire
// totals include MPI-internal CTS and barrier packets no DCGN frame accounts
// for: a tenant's NetPackets/NetBytes are the fabric's, by the solo
// definition. Equal to the solo run, the two symmetric co-tenants are equal
// to each other.
func TestRuntimeSimBatchIsolation(t *testing.T) {
	mk := func(backend string) *Job {
		job := pingPongJob(backend, 8)
		pingPong := job.cpuKernel
		job.SetCPUKernel(func(c *CPUCtx) {
			big := make([]byte, 4*job.cfg.MPI.EagerLimit)
			if c.Rank() == 0 {
				c.Send(1, big)
			} else {
				c.Recv(0, big)
			}
			pingPong(c) // ends in a Barrier
		})
		return job
	}
	solo := runOnHost(t, engineHost{name: "Job.Run"}, mk)

	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := r.Submit(mk(transport.BackendSim), SubmitOpts{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Submit(mk(transport.BackendSim), SubmitOpts{Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	rep1, err1 := h1.Wait()
	rep2, err2 := h2.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("tenant errors: %v / %v", err1, err2)
	}
	defer r.Close()

	for label, rep := range map[string]Report{"tenant-a": rep1, "tenant-b": rep2} {
		checkTenantReportInvariant(t, label, rep, 2)
		if rep.NetPackets == 0 || !reflect.DeepEqual(rep, solo) {
			t.Errorf("%s reports differently from a solo run (cross-tenant traffic? shared counters?):\n%+v\n%+v", label, rep, solo)
		}
	}
}

// TestRuntimeSimLossyTenant gives one tenant of a batch a wire that drops,
// duplicates and reorders — its own fault stream, tag band and sequence
// space, so nobody else's — next to a clean bystander that outlasts it and
// ahead of a queued successor that is admitted onto the very nodes it
// frees, late duplicates and all. The lossy tenant's Report is its solo
// run's; the bystander's and the successor's are their solo runs' and the
// ones they get from the same batch with a clean job in the lossy one's
// place.
func TestRuntimeSimLossyTenant(t *testing.T) {
	const sim = transport.BackendSim
	lossy := func() *Job { return lossyJob(sim) }
	bystander := func() *Job {
		job := pingPongJob(sim, 8)
		pingPong := job.cpuKernel
		job.SetCPUKernel(func(c *CPUCtx) {
			pingPong(c)
			c.Compute(10 * time.Second) // past every retransmit timeout of the lossy tenant
			pingPong(c)
		})
		return job
	}
	successor := func() *Job { return pingPongJob(sim, 5) }
	solo := func(mk func() *Job) Report {
		rep, err := mk().Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	batch := func(first func() *Job) (reps [3]Report) {
		r, err := NewRuntime(runtimeConfig(sim, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var hs [3]*JobHandle
		for i, mk := range []func() *Job{first, bystander, successor} {
			if hs[i], err = r.Submit(mk(), SubmitOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		for i, h := range hs {
			if reps[i], err = h.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if st := hs[2].Status(); st.StartedAt != hs[0].Status().FinishedAt || st.FinishedAt >= hs[1].Status().FinishedAt {
			t.Fatalf("successor ran %v..%v: not on the first job's nodes beside the bystander", st.StartedAt, st.FinishedAt)
		}
		return reps
	}
	faulted, clean := batch(lossy), batch(func() *Job { return pingPongJob(sim, 24) })
	if faulted[0].FaultsInjected.Drops == 0 || faulted[0].Retransmits == 0 || faulted[0].DupWireFrames == 0 {
		t.Fatalf("lossy tenant: %+v injected, %d retransmits, %d duplicates; test is vacuous",
			faulted[0].FaultsInjected, faulted[0].Retransmits, faulted[0].DupWireFrames)
	}
	for i, mk := range []func() *Job{lossy, bystander, successor} {
		name := []string{"lossy tenant", "bystander", "successor"}[i]
		if want := solo(mk); !reflect.DeepEqual(faulted[i], want) {
			t.Errorf("%s reports differently from its solo run:\n%+v\n%+v", name, faulted[i], want)
		}
		if i > 0 && !reflect.DeepEqual(faulted[i], clean[i]) {
			t.Errorf("%s reports differently beside a lossy tenant and beside a clean one:\n%+v\n%+v", name, faulted[i], clean[i])
		}
	}
}

// TestRuntimeSimLateFramesDie: a jittered successor takes the nodes of a
// tenant that has just retired. Whatever the predecessor left on the wire
// belongs to a tag band no live group rides, so it must die before its NIC
// charges or draws anything from the successor's noise stream: the
// successor reports as it does alone, no message is left on an unexpected
// queue, and the runtime counts what it dropped. TestRuntimeSimLossyTenant's
// lossy predecessor (reliable, so it waits for every ack) ends with nothing
// in flight; puts no one waits for leave frames on the wire.
func TestRuntimeSimLateFramesDie(t *testing.T) {
	const sim = transport.BackendSim
	successor := func() *Job {
		cfg := backendConfig(sim, 2, 1)
		cfg.JitterFrac, cfg.JitterSeed = 0.25, 11
		job := NewJob(cfg)
		job.SetCPUKernel(pingPongJob(sim, 6).cpuKernel)
		return job
	}
	want, err := successor().Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []struct {
		name string
		job  *Job
		late bool // leaves frames on the wire
	}{
		{"lossy", lossyJob(sim), false},
		{"puts-in-flight", putsInFlightJob(t, backendConfig(sim, 2, 1)), true},
	} {
		t.Run(pred.name, func(t *testing.T) {
			r, err := NewRuntime(runtimeConfig(sim, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			r.SetOnJobDone(func(st JobStatus) { checkMatchQueues(t, r, st) })
			first, err := r.Submit(pred.job, SubmitOpts{})
			if err != nil {
				t.Fatal(err)
			}
			next, err := r.Submit(successor(), SubmitOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := first.Wait(); err != nil {
				t.Fatal(err)
			}
			got, err := next.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if next.Status().StartedAt != first.Status().FinishedAt {
				t.Fatalf("successor started at %v, not when its predecessor retired (%v)", next.Status().StartedAt, first.Status().FinishedAt)
			}
			if n := r.SchedSnapshot().Counters["late_frames_dropped"]; (n > 0) != pred.late {
				t.Errorf("%d late frames dropped", n)
			}
			if posted, unexp := r.MatchQueues(); posted+unexp != 0 {
				t.Errorf("idle runtime: %d receives posted and %d messages unexpected on its ranks", posted, unexp)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("jittered successor reports differently from its solo run:\n%+v\n%+v", got, want)
			}
		})
	}
}

// checkMatchQueues is ROADMAP item 7's retirement invariant, checked from
// the OnJobDone callback of job done: what waits on the substrate's MPI
// matching queues — posted receives and unexpected messages — is bounded
// by the nodes of the jobs that may still hold any: the running ones and
// the one retiring, whose receivers go with its proc group at the next
// event boundary.
func checkMatchQueues(t *testing.T, r *Runtime, done JobStatus) {
	t.Helper()
	nodes := done.Nodes
	for _, st := range r.List() {
		if st.State == JobRunning {
			nodes += st.Nodes
		}
	}
	posted, unexp := r.MatchQueues()
	if bound := matchQueuesPerNode * nodes; posted+unexp > bound {
		t.Errorf("%d receives posted and %d messages unexpected with %d nodes' jobs live: bound %d", posted, unexp, nodes, bound)
	}
}

// matchQueuesPerNode bounds what one node of a live job keeps on the
// matching queues: a posted receive per lane (two-sided, one-sided).
const matchQueuesPerNode = 2

// TestRuntimeSimReliabilityIsolation runs two reliable-wire tenants
// concurrently: sequence spaces must not collide, so neither job sees
// duplicate frames or stray acks — each matches a solo reliable run.
func TestRuntimeSimReliabilityIsolation(t *testing.T) {
	mk := func() *Job {
		cfg := backendConfig(transport.BackendSim, 2, 1)
		cfg.Reliability.Enabled = true
		job := NewJob(cfg)
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 128)
			for i := 0; i < 6; i++ {
				switch c.Rank() {
				case 0:
					c.Send(1, buf)
				case 1:
					c.Recv(0, buf)
				}
			}
			c.Barrier()
		})
		return job
	}
	solo, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	if solo.AcksSent == 0 {
		t.Fatal("solo reliable run sent no acks; test is vacuous")
	}

	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := r.Submit(mk(), SubmitOpts{Tenant: "a"})
	hb, _ := r.Submit(mk(), SubmitOpts{Tenant: "b"})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for label, h := range map[string]*JobHandle{"a": ha, "b": hb} {
		rep, err := h.Wait()
		if err != nil {
			t.Fatalf("tenant %s: %v", label, err)
		}
		if rep.AcksSent != solo.AcksSent || rep.AcksReceived != solo.AcksReceived {
			t.Errorf("tenant %s: acks %d/%d, solo %d/%d (shared seq space?)",
				label, rep.AcksSent, rep.AcksReceived, solo.AcksSent, solo.AcksReceived)
		}
		if rep.DupWireFrames != 0 || rep.Retransmits != 0 {
			t.Errorf("tenant %s: %d dups, %d retransmits on a clean shared wire",
				label, rep.DupWireFrames, rep.Retransmits)
		}
	}
}

// TestRuntimeSimMetricsIsolation gives both tenants metrics and checks
// each report snapshots only its own instruments: every counter, gauge and
// histogram equals the solo run's.
func TestRuntimeSimMetricsIsolation(t *testing.T) {
	mk := func() *Job {
		cfg := backendConfig(transport.BackendSim, 2, 1)
		cfg.Metrics = true
		job := NewJob(cfg)
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 64)
			switch c.Rank() {
			case 0:
				c.Send(1, buf)
			case 1:
				c.Recv(0, buf)
			}
			c.Barrier()
		})
		return job
	}
	solo, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Histograms) == 0 || len(solo.Gauges) == 0 {
		t.Fatal("solo metrics run recorded no histograms or gauges; test is vacuous")
	}

	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := r.Submit(mk(), SubmitOpts{Tenant: "a"})
	hb, _ := r.Submit(mk(), SubmitOpts{Tenant: "b"})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	repA, _ := ha.Wait()
	repB, _ := hb.Wait()
	for label, rep := range map[string]Report{"a": repA, "b": repB} {
		if !reflect.DeepEqual(rep.Counters, solo.Counters) {
			t.Errorf("tenant %s counters %v, solo %v (shared instruments?)", label, rep.Counters, solo.Counters)
		}
		if !reflect.DeepEqual(rep.Gauges, solo.Gauges) {
			t.Errorf("tenant %s gauges %v, solo %v (shared instruments?)", label, rep.Gauges, solo.Gauges)
		}
		if !reflect.DeepEqual(rep.Histograms, solo.Histograms) {
			t.Errorf("tenant %s histograms %v, solo %v (shared instruments?)", label, rep.Histograms, solo.Histograms)
		}
	}
}

// TestRuntimeSimSaturationQueues submits three cluster-sized jobs to a
// cluster that fits one: all three must be accepted (queued, never
// rejected) and run back-to-back in virtual time.
func TestRuntimeSimSaturationQueues(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	var handles []*JobHandle
	for i := 0; i < 3; i++ {
		h, err := r.Submit(pingPongJob(transport.BackendSim, 8), SubmitOpts{})
		if err != nil {
			t.Fatalf("submit %d past saturation rejected: %v", i, err)
		}
		handles = append(handles, h)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var starts []time.Duration
	for i, h := range handles {
		rep, err := h.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		checkTenantReportInvariant(t, "saturated", rep, 2)
		starts = append(starts, h.Status().StartedAt)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	if !(starts[0] < starts[1] && starts[1] < starts[2]) {
		t.Errorf("expected strictly staggered starts on a saturated cluster, got %v", starts)
	}
}

// TestRuntimeSimArrivalOrder pins what the one arrivals proc keeps of the
// proc-per-arrival schedule it replaced: SubmitAt arrivals are taken in time
// order whatever order they were scheduled in, and simultaneous ones one at
// a time in schedule order — the first is admitted before the second has
// arrived. The cluster fits one job and the first of the tied pair belongs
// to the tenant that has already been charged, so had both been queued
// before either was admitted, fair share would have picked the other.
func TestRuntimeSimArrivalOrder(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	const at = 10 * time.Millisecond
	submitAt := func(name, tenant string, when time.Duration) *JobHandle {
		h, err := r.SubmitAt(pingPongJob(transport.BackendSim, 2), SubmitOpts{Name: name, Tenant: tenant}, when)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	tieA := submitAt("tie-a", "busy", at)
	tieB := submitAt("tie-b", "fresh", at)
	first := submitAt("first", "busy", 0) // scheduled last, arrives first
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, h := range []*JobHandle{first, tieA, tieB} {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	f, a, b := first.Status(), tieA.Status(), tieB.Status()
	if f.StartedAt != 0 || f.FinishedAt >= at {
		t.Fatalf("first ran %v..%v, want it started at 0 and done before %v", f.StartedAt, f.FinishedAt, at)
	}
	if a.SubmittedAt != at || b.SubmittedAt != at {
		t.Errorf("tied arrivals stamped %v and %v, want %v", a.SubmittedAt, b.SubmittedAt, at)
	}
	if a.StartedAt != at || b.StartedAt != a.FinishedAt {
		t.Errorf("tie-a ran %v..%v, tie-b started %v; want tie-a admitted on arrival at %v and tie-b behind it",
			a.StartedAt, a.FinishedAt, b.StartedAt, at)
	}
}

// gpuPingPongJob builds a 2-node, GPU-only job whose two devices bounce a
// small payload reps times through the mailbox path, so both monitors poll
// for the whole run.
func gpuPingPongJob(t *testing.T, reps int) *Job {
	cfg := gpuConfig(2, 0, 1, 1)
	cfg.Device.MemBytes = 256 << 10
	job := NewJob(cfg)
	const n = 64
	job.SetGPUSetup(func(s *GPUSetup) { s.Args["buf"] = s.Dev.Mem().MustAlloc(n) })
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		if g.Block().Idx != 0 {
			return
		}
		ptr, peer := g.Arg("buf").(device.Ptr), 1-g.Rank(0)
		for i := 0; i < reps; i++ {
			var err error
			if g.Rank(0) == 0 {
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

// jobGPUs returns a running job's GPU threads. Their poll ticks, read off
// the threads rather than a Report, go on counting for as long as the
// monitors live, and they stay readable once a retired job has given its
// node engines back (Job.releaseEngines).
func jobGPUs(j *Job) (gts []*gpuThread) {
	for _, ns := range j.nodes {
		gts = append(gts, ns.gpus...)
	}
	return gts
}

// gpuPolls sums the monitor poll ticks of gts.
func gpuPolls(gts []*gpuThread) (polls int) {
	for _, gt := range gts {
		polls += int(gt.polls.Load())
	}
	return polls
}

// TestRuntimeSimRetiredTenantLeavesNothing streams 300 tenants of every
// kind — classic, reliable, one-sided, GPU with monitors, GPU-triggered —
// through a 4-node runtime, two at a time, and checks at every retirement
// that what the simulator, the Go runtime and the MPI ranks hold is bounded
// by the tenants running, not the tenants ever run: a retired tenant's comm
// threads, receivers, sinks, monitors, NIC daemons and timers are gone,
// their posted receives with them, and its monitors have stopped polling.
func TestRuntimeSimRetiredTenantLeavesNothing(t *testing.T) {
	const tenants = 300
	// Two tenants at a time, each at most a dozen daemons and helpers, next
	// to the substrate's own (38 and 6 at the peak); at the parent commit the
	// last retirement sees 1 973 procs and 960 posted receives.
	const maxProcs, maxPosted = 64, 8
	rc := runtimeConfig(transport.BackendSim, 4)
	rc.MaxQueue = tenants
	r, err := NewRuntime(rc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	jobs := make(map[int]*Job, tenants)
	for i := 0; i < tenants; i++ {
		var job *Job
		switch i % 5 {
		case 0:
			job = pingPongJob(transport.BackendSim, 4)
		case 1:
			cfg := backendConfig(transport.BackendSim, 2, 1)
			cfg.Reliability.Enabled = true
			job = putStreamJob(t, cfg, make([]byte, 3))
		case 2:
			job = putStreamJob(t, backendConfig(transport.BackendSim, 2, 1), make([]byte, 3))
		case 3:
			job = gpuPingPongJob(t, 2)
		case 4:
			cfg := gpuConfig(2, 1, 1, 1)
			cfg.Device.MemBytes = 256 << 10
			job, _ = triggeredJob(t, cfg, 2, 64, i%2 == 0)
		}
		h, err := r.Submit(job, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[h.ID()] = job
	}
	baseGoroutines := runtime.NumGoroutine()
	// retired holds the polls of each retired GPU tenant as first read one
	// retirement after its own — by when the kill injected at its completion
	// has run — and -1 until then; gpus its GPU threads, taken at its
	// retirement.
	retired, gpus := map[int]int{}, map[int][]*gpuThread{}
	done, polled := 0, 0
	r.SetOnJobDone(func(st JobStatus) { // sim context: one proc at a time
		done++
		if st.State != JobDone {
			t.Errorf("tenant %d: %v", st.ID, st.State)
		}
		posted := 0
		for n := 0; n < rc.Nodes; n++ {
			posted += r.sub.world.Rank(n).Posted()
		}
		procs, goroutines := r.sub.loop.Shard(0).Sim().Unfinished(), runtime.NumGoroutine()-baseGoroutines
		if procs > maxProcs || goroutines > maxProcs || posted > maxPosted {
			t.Errorf("after %d retirements: %d unfinished procs, %d goroutines, %d posted receives; want at most %d, %d, %d",
				done, procs, goroutines, posted, maxProcs, maxProcs, maxPosted)
		}
		for id, was := range retired {
			now := gpuPolls(gpus[id])
			if was >= 0 && now != was {
				t.Errorf("tenant %d retired, yet its monitors went on polling: %d -> %d", id, was, now)
			}
			retired[id] = now
			polled = max(polled, now)
		}
		if gts := jobGPUs(jobs[st.ID]); len(gts) > 0 {
			retired[st.ID], gpus[st.ID] = -1, gts
		}
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if done != tenants || polled == 0 {
		t.Fatalf("%d of %d tenants retired, GPU tenants polled up to %d times; test is vacuous", done, tenants, polled)
	}
}

// TestRuntimeSimCanceledCollectiveStaysWithItsTenant cancels tenant A
// between its root node's Bcast send and the other node's join, so A's
// frame is left in world rank 1's unexpected queue, and then runs tenant B
// on the same two nodes: B's Bcast must deliver what B's root sent. A
// communicator's collective context is its own (mpi.NewGroupComm), not its
// member set's — at the parent commit B's rank 1 received A's 0xaa.
func TestRuntimeSimCanceledCollectiveStaysWithItsTenant(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var a *JobHandle
	jobA := NewJob(backendConfig(transport.BackendSim, 2, 1))
	jobA.SetCPUKernel(func(c *CPUCtx) {
		if c.Rank() == 1 {
			c.Compute(50 * time.Millisecond) // still computing when A is canceled
			c.Bcast(0, make([]byte, 64))
			return
		}
		c.Bcast(0, bytes.Repeat([]byte{0xAA}, 64))
		c.Compute(time.Millisecond) // the frame is at node 1 by now
		if err := a.Cancel(); err != nil {
			t.Errorf("cancel of running tenant: %v", err)
		}
		c.Recv(1, make([]byte, 8))
	})
	if a, err = r.Submit(jobA, SubmitOpts{Tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	jobB := NewJob(backendConfig(transport.BackendSim, 2, 1))
	jobB.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 64)
		if c.Rank() == 0 {
			buf = bytes.Repeat([]byte{0xBB}, 64)
		}
		if err := c.Bcast(0, buf); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xBB}, 64)) {
			t.Errorf("tenant b rank %d received %#x…, its own root sent 0xbb…", c.Rank(), buf[0])
		}
		c.Barrier()
	})
	b, err := r.Submit(jobB, SubmitOpts{Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if st := a.Status().State; st != JobCanceled {
		t.Errorf("tenant a is %v, want canceled", st)
	}
	if st := b.Status().State; st != JobDone {
		t.Errorf("tenant b is %v, want done", st)
	}
}

// TestRuntimeSimOneSidedTenant has a tenant register windows and put into
// them under a default Config — the lane needs no switch, so any job a
// runtime serves may use it — next to a classic co-tenant, whose Report and
// start and finish times must equal, field for field, the ones it gets with
// the cluster to itself.
func TestRuntimeSimOneSidedTenant(t *testing.T) {
	const puts = 6
	type outcome struct {
		Report
		JobStatus
	}
	classic := func(cotenant bool) outcome {
		r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		h, err := r.Submit(pingPongJob(transport.BackendSim, 8), SubmitOpts{Tenant: "classic"})
		if err != nil {
			t.Fatal(err)
		}
		var hw *JobHandle
		win := make([]byte, puts)
		if cotenant {
			job := putStreamJob(t, backendConfig(transport.BackendSim, 2, 1), win)
			if hw, err = r.Submit(job, SubmitOpts{Tenant: "windows"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if cotenant {
			rep, err := hw.Wait()
			if err != nil || rep.OneSidedPuts != puts || win[puts-1] != puts {
				t.Errorf("one-sided tenant: err %v, %d puts counted, window %v", err, rep.OneSidedPuts, win)
			}
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{rep, h.Status()}
	}
	if alone, shared := classic(false), classic(true); !reflect.DeepEqual(alone, shared) {
		t.Errorf("classic tenant changed next to a one-sided co-tenant:\nalone  %+v\nshared %+v", alone, shared)
	}
}

// TestRuntimeQueueBound pins the other half of admission control: the
// queue is bounded, and only past MaxQueue pending jobs does Submit fail
// — with ErrQueueFull, not a silent drop.
func TestRuntimeQueueBound(t *testing.T) {
	cfg := runtimeConfig(transport.BackendSim, 2)
	cfg.MaxQueue = 2
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pingPongJob(transport.BackendSim, 1), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pingPongJob(transport.BackendSim, 1), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pingPongJob(transport.BackendSim, 1), SubmitOpts{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit past MaxQueue=2: err=%v, want ErrQueueFull", err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestRuntimeSimFairShare saturates a 4-node cluster with two tenants of
// weight 1 and 3 submitting identical 1-node jobs, and checks the
// admission split while both are contending tracks the configured
// weights within 15%.
func TestRuntimeSimFairShare(t *testing.T) {
	mk := func() *Job {
		job := NewJob(backendConfig(transport.BackendSim, 1, 2))
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 64)
			for i := 0; i < 4; i++ {
				switch c.Rank() {
				case 0:
					c.Send(1, buf)
					c.Recv(1, buf)
				case 1:
					c.Recv(0, buf)
					c.Send(0, buf)
				}
			}
		})
		return job
	}
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
	if err != nil {
		t.Fatal(err)
	}
	type sub struct {
		h      *JobHandle
		tenant string
	}
	var subs []sub
	for i := 0; i < 10; i++ {
		h, err := r.Submit(mk(), SubmitOpts{Tenant: "light", Weight: 1})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{h, "light"})
	}
	for i := 0; i < 30; i++ {
		h, err := r.Submit(mk(), SubmitOpts{Tenant: "heavy", Weight: 3})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{h, "heavy"})
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	type adm struct {
		start  time.Duration
		tenant string
	}
	var adms []adm
	for _, s := range subs {
		if _, err := s.h.Wait(); err != nil {
			t.Fatalf("tenant %s job: %v", s.tenant, err)
		}
		adms = append(adms, adm{s.h.Status().StartedAt, s.tenant})
	}
	sort.SliceStable(adms, func(i, j int) bool { return adms[i].start < adms[j].start })
	// Both tenants are contending throughout the first 16 admissions
	// (light has 10 jobs, heavy 30). Weights 1:3 → expect a 4:12 split;
	// within 15% means light gets 3–5 of 16.
	light := 0
	for _, a := range adms[:16] {
		if a.tenant == "light" {
			light++
		}
	}
	if light < 3 || light > 5 {
		t.Errorf("weight-1 tenant won %d of the first 16 admissions, want 4±1 (weights 1:3)", light)
	}
}

// TestRuntimeSimPriority checks strict priority ordering: a late
// high-priority submission is admitted ahead of earlier normal ones.
func TestRuntimeSimPriority(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Three cluster-sized jobs: only one runs at a time, so admission
	// order is observable as start order.
	hLow1, _ := r.Submit(pingPongJob(transport.BackendSim, 4), SubmitOpts{Name: "low1"})
	hLow2, _ := r.Submit(pingPongJob(transport.BackendSim, 4), SubmitOpts{Name: "low2"})
	hHigh, _ := r.Submit(pingPongJob(transport.BackendSim, 4), SubmitOpts{Name: "high", Priority: 1})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, h := range []*JobHandle{hLow1, hLow2, hHigh} {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// low1 is admitted at t=0 (the high-priority job arrives while it
	// holds the cluster conceptually — in the batch everything is queued
	// at t=0, so priority decides the whole order: high first, then FIFO).
	if !(hHigh.Status().StartedAt < hLow1.Status().StartedAt &&
		hLow1.Status().StartedAt < hLow2.Status().StartedAt) {
		t.Errorf("admission order (starts): high=%v low1=%v low2=%v; want high < low1 < low2",
			hHigh.Status().StartedAt, hLow1.Status().StartedAt, hLow2.Status().StartedAt)
	}
}

// TestRuntimeLifecycle drives one job through every way a submission can
// end, on both backends, and checks the parts of the lifecycle that no
// ending may skip: the handle resolves with the right state and error,
// OnJobDone fires exactly once per accepted job, the scheduler's counters
// balance, the job's nodes, metrics partition and engine are released,
// and a follow-up job gets to run on what was freed.
func TestRuntimeLifecycle(t *testing.T) {
	// obsJob is a 2-node job with a metrics partition and a trace sink to
	// release.
	obsJob := func(backend string, kernel func(*CPUCtx)) *Job {
		cfg := backendConfig(backend, 2, 1)
		cfg.Metrics, cfg.Trace = true, true
		job := NewJob(cfg)
		job.SetCPUKernel(kernel)
		return job
	}
	quick := func(c *CPUCtx) { c.Barrier() }
	submit := func(t *testing.T, r *Runtime, job *Job) *JobHandle {
		t.Helper()
		h, err := r.Submit(job, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	submitAt := func(t *testing.T, r *Runtime, job *Job, at time.Duration) *JobHandle {
		t.Helper()
		h, err := r.SubmitAt(job, SubmitOpts{}, at)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	rows := []struct {
		name     string
		backends []string
		maxQueue int
		maxTime  time.Duration
		// drive submits the subject and whatever provokes its ending. It
		// returns the subject's handle (nil when Submit rejected it) and a
		// follow-up that can only run on the nodes the subject gives up
		// (nil when the batch is over by then).
		drive     func(t *testing.T, r *Runtime, backend string) (subject, followUp *JobHandle)
		wantState JobState
		wantErr   string // substring; "" = nil error
		runFails  bool   // the simulated batch itself returns an error
		partial   bool   // cut short while running: the Report says how far it got
	}{
		{
			name: "done", backends: backends,
			drive: func(t *testing.T, r *Runtime, backend string) (*JobHandle, *JobHandle) {
				return submit(t, r, obsJob(backend, quick)), submit(t, r, pingPongJob(backend, 2))
			},
			wantState: JobDone,
		},
		{
			name: "cancel-queued", backends: backends,
			drive: func(t *testing.T, r *Runtime, backend string) (*JobHandle, *JobHandle) {
				// On the live backend a job is only ever queued behind a
				// running one; before a simulated batch runs, everything is.
				var blocker *JobHandle
				if backend == transport.BackendLive {
					blocker = submit(t, r, obsJob(backend, func(c *CPUCtx) {
						c.Recv(1-c.Rank(), make([]byte, 8)) // both receive: holds the nodes until canceled
					}))
				}
				subject := submit(t, r, obsJob(backend, quick))
				if st := subject.Status().State; st != JobQueued {
					t.Fatalf("subject is %v, want queued", st)
				}
				if err := subject.Cancel(); err != nil {
					t.Fatal(err)
				}
				followUp := submit(t, r, pingPongJob(backend, 2))
				if blocker != nil {
					if err := blocker.Cancel(); err != nil {
						t.Fatal(err)
					}
				}
				return subject, followUp
			},
			wantState: JobCanceled, wantErr: ErrJobCanceled.Error(),
		},
		{
			name: "cancel-running", backends: backends,
			drive: func(t *testing.T, r *Runtime, backend string) (*JobHandle, *JobHandle) {
				// The subject cancels itself from inside its kernel, which is
				// mid-run by construction on both clocks, then blocks for good.
				var subject *JobHandle
				ready := make(chan struct{})
				subject = submit(t, r, obsJob(backend, func(c *CPUCtx) {
					if c.Rank() == 0 {
						<-ready
						if err := subject.Cancel(); err != nil {
							t.Errorf("cancel of running job: %v", err)
						}
					}
					c.Recv(1-c.Rank(), make([]byte, 8))
				}))
				close(ready)
				return subject, submit(t, r, pingPongJob(backend, 2))
			},
			wantState: JobCanceled, wantErr: ErrJobCanceled.Error(),
		},
		{
			name: "shed-at-arrival", backends: []string{transport.BackendSim}, maxQueue: 1,
			drive: func(t *testing.T, r *Runtime, backend string) (*JobHandle, *JobHandle) {
				submitAt(t, r, pingPongJob(backend, 8), 0)                            // holds the cluster
				followUp := submitAt(t, r, pingPongJob(backend, 2), time.Microsecond) // fills the queue
				return submitAt(t, r, obsJob(backend, quick), 2*time.Microsecond), followUp
			},
			wantState: JobFailed, wantErr: ErrQueueFull.Error(),
		},
		{
			name: "time-cap", backends: []string{transport.BackendSim}, maxTime: time.Second,
			drive: func(t *testing.T, r *Runtime, backend string) (*JobHandle, *JobHandle) {
				subject := submit(t, r, obsJob(backend, func(c *CPUCtx) {
					for { // busy to the cap and past it
						c.Barrier()
						c.Compute(10 * time.Millisecond)
					}
				}))
				submit(t, r, pingPongJob(backend, 2)) // still queued when the batch ends
				return subject, nil
			},
			wantState: JobFailed, wantErr: "batch ended before job 1 finished", runFails: true, partial: true,
		},
		{
			name: "rejected", backends: backends,
			drive: func(t *testing.T, r *Runtime, backend string) (*JobHandle, *JobHandle) {
				// CPU-kernel threads in the shape, only a GPU kernel installed:
				// validation must refuse it before any engine is brought up.
				mk := func() *Job {
					cfg := backendConfig(backend, 2, 1)
					if backend == transport.BackendSim {
						cfg.GPUs = 1 // its GPU threads used to get it past Submit
					}
					job := NewJob(cfg)
					job.SetGPUKernel(1, 1, func(*GPUCtx) {})
					return job
				}
				const want = "CPU-kernel threads requested but no CPU kernel installed"
				if _, err := r.Submit(mk(), SubmitOpts{}); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("Submit: err=%v, want %q", err, want)
				}
				solo := mk()
				if _, err := solo.Run(); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("Job.Run: err=%v, want %q", err, want)
				}
				if solo.nodes != nil {
					t.Error("Job.Run built node engines before rejecting the job")
				}
				return nil, submit(t, r, pingPongJob(backend, 2))
			},
		},
	}
	for _, row := range rows {
		for _, backend := range row.backends {
			t.Run(row.name+"/"+backend, func(t *testing.T) {
				cfg := runtimeConfig(backend, 2)
				cfg.MaxQueue = row.maxQueue
				if row.maxTime > 0 {
					cfg.MaxVirtualTime = row.maxTime
				}
				r, err := NewRuntime(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				notified := map[int]int{}
				r.SetOnJobDone(func(st JobStatus) {
					mu.Lock()
					notified[st.ID]++
					mu.Unlock()
				})

				subject, followUp := row.drive(t, r, backend)
				if backend == transport.BackendSim {
					if err := r.Run(); (err != nil) != row.runFails {
						t.Fatalf("Run: err=%v, want failure=%v", err, row.runFails)
					}
				}
				if subject != nil {
					rep, err := subject.Wait()
					if ran := cfg.MaxVirtualTime - subject.Status().StartedAt; row.partial &&
						(rep.Requests == 0 || rep.Elapsed > ran || rep.Elapsed < ran-20*time.Millisecond) {
						t.Errorf("subject: partial Report has %d requests over %v, want some over the %v it ran", rep.Requests, rep.Elapsed, ran)
					}
					if row.wantErr == "" && err != nil || row.wantErr != "" && (err == nil || !strings.Contains(err.Error(), row.wantErr)) {
						t.Errorf("subject: err=%v, want %q", err, row.wantErr)
					}
					if st := subject.Status().State; st != row.wantState {
						t.Errorf("subject: state %v, want %v", st, row.wantState)
					}
				}
				if followUp != nil {
					if rep, err := followUp.Wait(); err != nil || rep.Requests == 0 {
						t.Errorf("follow-up on the freed nodes: err=%v, %d requests", err, rep.Requests)
					}
				}
				if err := r.Close(); err != nil { // drains: every accepted job is terminal after this
					t.Fatal(err)
				}

				for _, st := range r.List() {
					if notified[st.ID] != 1 {
						t.Errorf("job %d (%v): OnJobDone fired %d times, want exactly once", st.ID, st.State, notified[st.ID])
					}
				}
				if len(notified) != len(r.List()) {
					t.Errorf("OnJobDone fired for %d jobs, %d were accepted", len(notified), len(r.List()))
				}
				cnt := r.SchedSnapshot().Counters
				if cnt["jobs_submitted"] != cnt["jobs_done"]+cnt["jobs_failed"]+cnt["jobs_canceled"] {
					t.Errorf("counters do not balance: submitted %d != done %d + failed %d + canceled %d (rejected %d)",
						cnt["jobs_submitted"], cnt["jobs_done"], cnt["jobs_failed"], cnt["jobs_canceled"], cnt["jobs_rejected"])
				}
				if parts := r.obsParts.Tenants(); len(parts) != 1 || parts[0] != "runtime" {
					t.Errorf("metrics partitions left behind: %v", parts)
				}
				for n, free := range r.free {
					if !free {
						t.Errorf("node %d still claimed", n)
					}
				}
				for _, c := range r.jobs {
					if c.job != nil || c.placement != nil {
						t.Errorf("job %d: engine or placement retained after it ended", c.ID)
					}
				}
				if len(r.queue) != 0 {
					t.Errorf("%d jobs left in the admission queue", len(r.queue))
				}
			})
		}
	}
}

// TestRuntimeSubmitValidation pins the admission-time rejections: wrong
// backend, oversized jobs, and the two per-job knobs a runtime cannot take —
// the debug endpoint it owns, and jitter, whose refusal must say why.
func TestRuntimeSubmitValidation(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}()
	cases := []struct {
		name string
		job  *Job
	}{
		{name: "wrong backend", job: pingPongJob(transport.BackendLive, 1)},
		{name: "too many nodes", job: func() *Job {
			j := NewJob(backendConfig(transport.BackendSim, 3, 1))
			j.SetCPUKernel(func(*CPUCtx) {})
			return j
		}()},
		{name: "no kernels", job: NewJob(backendConfig(transport.BackendSim, 2, 1))},
		{name: "debug addr", job: func() *Job {
			cfg := backendConfig(transport.BackendSim, 2, 1)
			cfg.DebugAddr = ":0"
			j := NewJob(cfg)
			j.SetCPUKernel(func(*CPUCtx) {})
			return j
		}()},
	}
	for _, tc := range cases {
		if _, err := r.Submit(tc.job, SubmitOpts{}); err == nil {
			t.Errorf("%s: Submit accepted the job", tc.name)
		}
	}
}

// TestBadDeviceConfigIsAnError: a job with GPUs and an unusable
// Config.Device is refused with an error by Job.Run and by Submit, before
// anything is built. At the parent commit Job.Run panicked "device: invalid
// geometry", and Submit accepted the job so that Runtime.Run panicked
// "device: arena too small" in the shared loop, taking the co-tenant with it.
func TestBadDeviceConfigIsAnError(t *testing.T) {
	mk := func(dev device.Config) *Job {
		cfg := gpuConfig(2, 0, 1, 1)
		cfg.Device = dev
		job := NewJob(cfg)
		job.SetGPUKernel(1, 1, func(*GPUCtx) {})
		return job
	}
	tiny := gpuConfig(1, 0, 1, 1).Device
	tiny.MemBytes = 100
	for name, dev := range map[string]device.Config{"zero": {}, "tiny arena": tiny} {
		solo := mk(dev)
		if _, err := solo.Run(); err == nil || !strings.Contains(err.Error(), "invalid device config") {
			t.Errorf("%s: Job.Run err=%v, want an invalid device config error", name, err)
		}
		if solo.nodes != nil {
			t.Errorf("%s: Job.Run built node engines before rejecting the job", name)
		}

		r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
		if err != nil {
			t.Fatal(err)
		}
		coTenant, err := r.Submit(pingPongJob(transport.BackendSim, 2), SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Submit(mk(dev), SubmitOpts{}); err == nil || !strings.Contains(err.Error(), "invalid device config") {
			t.Errorf("%s: Submit err=%v, want an invalid device config error", name, err)
		}
		if err := r.Run(); err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if rep, err := coTenant.Wait(); err != nil || rep.Requests == 0 {
			t.Errorf("%s: co-tenant: err=%v, %d requests", name, err, rep.Requests)
		}
		r.Close()
	}
}

// jitteredJob is a 4-node job with a CPU kernel and a device on every node,
// noisy at frac from seed: the CPU ranks compute and pass 4 KiB round the
// cluster, the GPU ranks ping-pong with the neighbouring node's — so every
// owner of a noise draw (engine, MPI rank, NICs, bus, device) makes some, on
// every node.
func jitteredJob(t *testing.T, frac float64, seed int64, reps int) *Job {
	cfg := gpuConfig(4, 1, 1, 1)
	cfg.Device.MemBytes = 256 << 10
	cfg.JitterFrac, cfg.JitterSeed = frac, seed
	job := NewJob(cfg)
	rm := job.Ranks()
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 4<<10)
		next, prev := rm.CPURank((c.Node()+1)%4, 0), rm.CPURank((c.Node()+3)%4, 0)
		for i := 0; i < reps; i++ {
			c.Compute(20 * time.Microsecond)
			if _, err := c.SendRecvReplace(next, prev, buf); err != nil {
				t.Error(err)
			}
		}
	})
	const n = 64
	job.SetGPUSetup(func(s *GPUSetup) { s.Args["buf"] = s.Dev.Mem().MustAlloc(n) })
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		node := rm.Node(g.Rank(0))
		ptr, peer := g.Arg("buf").(device.Ptr), rm.GPURank(node^1, 0, 0)
		for i := 0; i < reps; i++ {
			var err error
			if node%2 == 0 {
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

// TestJitterIsTheJobs: a job's timing noise is drawn from its nodes' streams,
// seeded by the job, so the whole Report of a jittered job is the same on
// every shard count and under a Runtime — beside a jittered tenant of another
// seed, and as the successor on the nodes that tenant leaves — and an
// unjittered successor of a jittered tenant inherits none of its noise. At
// the parent commit Job.Run refused the sharded runs ("jitter needs Shards
// <= 1") and Submit every tenant here ("a runtime takes no jittered jobs").
func TestJitterIsTheJobs(t *testing.T) {
	subject := func() *Job { return jitteredJob(t, 0.25, 7, 4) }
	calm := func() *Job { return jitteredJob(t, 0, 0, 4) }
	solo := func(mk func() *Job, shards int) Report {
		job := mk()
		job.cfg.Shards = shards
		rep, err := job.Run()
		if err != nil {
			t.Fatalf("Shards %d: %v", shards, err)
		}
		checkTenantReportInvariant(t, "Job.Run", rep, 4)
		return rep
	}
	want, wantCalm := solo(subject, 0), solo(calm, 0)
	if want.Polls == 0 || want.NetPackets == 0 {
		t.Fatalf("no polls or no packets: the job is not the one described: %+v", want)
	}
	for _, shards := range []int{1, 2, 4} {
		rep := solo(subject, shards)
		rep.PoolHits = want.PoolHits // which thread reached the shared pool first
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("Shards %d and Shards 0 report differently:\n%+v\n%+v", shards, rep, want)
		}
	}
	if want.Elapsed == wantCalm.Elapsed {
		t.Errorf("jitter left Elapsed at %v; the comparisons prove nothing", want.Elapsed)
	}
	if other := solo(func() *Job { return jitteredJob(t, 0.25, 8, 4) }, 0); other.Elapsed == want.Elapsed {
		t.Errorf("seeds 7 and 8 both ran %v", want.Elapsed)
	}

	// Eight nodes: a short seed-8 tenant and the subject start together, the
	// subject again takes the seed-8 tenant's nodes when it retires, and an
	// unjittered job the first nodes a seed-7 tenant frees.
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mks := []func() *Job{func() *Job { return jitteredJob(t, 0.25, 8, 2) }, subject, subject, calm}
	hs := make([]*JobHandle, len(mks))
	for i, mk := range mks {
		if hs[i], err = r.Submit(mk(), SubmitOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if first, succ, last := hs[0].Status(), hs[2].Status(), hs[3].Status(); succ.StartedAt != first.FinishedAt ||
		first.FinishedAt == 0 || last.StartedAt != hs[1].Status().FinishedAt {
		t.Fatalf("tenants ran %v..%v, %v.., %v..: not each on the nodes its predecessor freed",
			first.StartedAt, first.FinishedAt, succ.StartedAt, last.StartedAt)
	}
	for _, tc := range []struct {
		h    *JobHandle
		name string
		solo Report
	}{
		{hs[1], "co-tenant of a seed-8 tenant", want},
		{hs[2], "successor of a seed-8 tenant", want},
		{hs[3], "unjittered successor of a seed-7 tenant", wantCalm},
	} {
		rep, err := tc.h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, tc.solo) {
			t.Errorf("%s reports differently from its solo run:\n%+v\n%+v", tc.name, rep, tc.solo)
		}
	}
}

// TestRuntimeLiveConcurrentJobs is the live-backend scale check: one
// Runtime sustains 8 concurrent jobs (admitted together, none queued) on
// real goroutines. Run under -race, this is also the isolation proof for
// the shared live cluster.
func TestRuntimeLiveConcurrentJobs(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendLive, 16))
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 8
	var handles []*JobHandle
	for i := 0; i < jobs; i++ {
		h, err := r.Submit(pingPongJob(transport.BackendLive, 50), SubmitOpts{Tenant: "t", Weight: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// 16 nodes fit all 8 two-node jobs: every one must be admitted
	// immediately, i.e. running concurrently.
	for i, h := range handles {
		if st := h.Status().State; st == JobQueued {
			t.Errorf("job %d still queued on an unsaturated cluster", i)
		}
	}
	for i, h := range handles {
		rep, err := h.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		checkTenantReportInvariant(t, "live", rep, 2)
		if rep.NetPackets == 0 {
			t.Errorf("job %d reports no wire traffic", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeLiveQueueAndAdmit saturates a live cluster and checks the
// queued job is admitted when the first finishes — time-sharing, not
// rejection.
func TestRuntimeLiveQueueAndAdmit(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendLive, 2))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := r.Submit(pingPongJob(transport.BackendLive, 200), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Submit(pingPongJob(transport.BackendLive, 1), SubmitOpts{})
	if err != nil {
		t.Fatalf("submit past saturation rejected: %v", err)
	}
	if _, err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if rep, err := h2.Wait(); err != nil {
		t.Fatal(err)
	} else if rep.Requests == 0 {
		t.Error("queued job ran no requests")
	}
	if h2.Status().StartedAt < h1.Status().FinishedAt {
		t.Errorf("queued job started at %v, before the first finished at %v",
			h2.Status().StartedAt, h1.Status().FinishedAt)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeLiveCancelRunning cancels a deadlocked running job: the
// runtime closes its transport group, the engine unwinds, and the handle
// resolves with ErrJobCanceled — without waiting for the watchdog.
func TestRuntimeLiveCancelRunning(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendLive, 2))
	if err != nil {
		t.Fatal(err)
	}
	job := NewJob(backendConfig(transport.BackendLive, 2, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		// Both ranks receive from each other: a guaranteed deadlock.
		buf := make([]byte, 8)
		c.Recv(1-c.Rank(), buf)
	})
	h, err := r.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("canceled running job: err=%v, want ErrJobCanceled", err)
	}
	if st := h.Status().State; st != JobCanceled {
		t.Errorf("state %v, want canceled", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeControlAPI exercises the HTTP control plane end to end on a
// live runtime: submit a registered template, watch it through the job
// list, read the merged metrics snapshot, and drain.
func TestRuntimeControlAPI(t *testing.T) {
	cfg := runtimeConfig(transport.BackendLive, 2)
	cfg.DebugAddr = "127.0.0.1:0"
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RegisterTemplate("pingpong", func() *Job {
		return pingPongJob(transport.BackendLive, 5)
	})
	addr := r.ControlAddr()
	if addr == "" {
		t.Fatal("control endpoint not bound")
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/runtime/submit?template=pingpong&tenant=web&weight=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st struct {
		ID     int    `json:"id"`
		Tenant string `json:"tenant"`
		Weight int    `json:"weight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == 0 || st.Tenant != "web" || st.Weight != 2 {
		t.Fatalf("submit echoed %+v", st)
	}

	if resp, err := http.Post(base+"/runtime/submit?template=nope", "", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown template: HTTP %d, want 404", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/runtime/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list []struct {
			ID    int    `json:"id"`
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(list) >= 1 && list[0].State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached done: %+v", list)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if resp, err := http.Get(base + "/debug/dcgn"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics snapshot: HTTP %d", resp.StatusCode)
	}
	if resp, err := http.Post(base+"/runtime/drain", "", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: HTTP %d", resp.StatusCode)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeDrainRejectsSubmits checks Drain flips the runtime into
// reject mode and settles every accepted job.
func TestRuntimeDrainRejectsSubmits(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendLive, 2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Submit(pingPongJob(transport.BackendLive, 10), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r.Drain()
	if _, err := r.Submit(pingPongJob(transport.BackendLive, 1), SubmitOpts{}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("submit after drain: err=%v, want ErrRuntimeClosed", err)
	}
	if st := h.Status().State; st != JobDone {
		t.Errorf("drained runtime left job in state %v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
