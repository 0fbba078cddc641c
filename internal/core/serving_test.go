package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/transport"
)

// Serving-path regression suite: cancel of a running simulated job, the
// control API's status-code contract, and admission-queue behavior under
// open-loop overload.

// computeJob builds a 2-node job whose ranks compute for d (virtual time
// on sim) — a job that stays running long enough to be canceled.
func computeJob(backend string, d time.Duration) *Job {
	job := NewJob(backendConfig(backend, 2, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		c.Compute(d)
	})
	return job
}

// TestRuntimeSimCancelRunning is the regression test for canceling a
// RUNNING job on the simulated backend: the cancel takes effect at the
// next virtual-time event boundary (via sim.Inject), the job lands in
// JobCanceled with ErrJobCanceled, and the co-tenant batch drains
// normally. Before the fix this returned "cannot cancel running sim job".
//
// Two victims are canceled when the quick tenant completes: one computing,
// one a GPU tenant whose devices wait on each other forever while node 0's
// four CPU ranks stream eager sends — so the cancel finds device blocks
// parked, monitors polling, and a fabric NIC mid-packet with senders queued
// behind it. Everything either victim
// started must go with it: a bystander running across the cancel sees
// nothing (its Report and times equal those of a batch without victims,
// and so does the simulator's proc count at its completion), the monitors
// stop, and a successor that needs the victims' nodes — NICs included —
// runs to completion on them.
func TestRuntimeSimCancelRunning(t *testing.T) {
	type outcome struct {
		Report
		JobStatus
		procs int // unfinished on the simulator as the bystander completes
	}
	gpuVictim := func() *Job {
		cfg := gpuConfig(2, 4, 1, 1) // per node: four CPU ranks, then the GPU's
		cfg.Device.MemBytes = 256 << 10
		job := NewJob(cfg)
		job.SetGPUSetup(func(s *GPUSetup) { s.Args["buf"] = s.Dev.Mem().MustAlloc(64) })
		job.SetGPUKernel(2, 4, func(g *GPUCtx) {
			if g.Block().Idx == 0 { // neither device ever sends
				g.Recv(0, (g.Rank(0)+g.Size()/2)%g.Size(), g.Arg("buf").(device.Ptr), 64)
			}
			g.Block().ChargeTime(time.Hour)
		})
		job.SetCPUKernel(func(c *CPUCtx) {
			buf, half := make([]byte, 4096), c.Size()/2
			for {
				if c.Rank() < half {
					c.Send(c.Rank()+half, buf)
				} else {
					c.Recv(c.Rank()-half, buf)
				}
			}
		})
		return job
	}
	run := func(withVictims bool) outcome {
		r, err := NewRuntime(runtimeConfig(transport.BackendSim, 8))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		// Victims are submitted last, so quick and the bystander get the same
		// nodes with and without them.
		quick, err := r.Submit(pingPongJob(transport.BackendSim, 2), SubmitOpts{Tenant: "quick"})
		if err != nil {
			t.Fatal(err)
		}
		bystander, err := r.Submit(pingPongJob(transport.BackendSim, 40), SubmitOpts{Tenant: "bystander"})
		if err != nil {
			t.Fatal(err)
		}
		var victim, gpu, successor *JobHandle
		var gpuJob *Job
		if withVictims {
			// The victim computes for 10 virtual minutes; the quick co-tenant
			// finishes in microseconds and its completion callback cancels both
			// victims mid-run, deterministically inside virtual time.
			if victim, err = r.Submit(computeJob(transport.BackendSim, 10*time.Minute), SubmitOpts{Tenant: "victim"}); err != nil {
				t.Fatal(err)
			}
			gpuJob = gpuVictim()
			if gpu, err = r.Submit(gpuJob, SubmitOpts{Tenant: "gpu-victim"}); err != nil {
				t.Fatal(err)
			}
		}
		var cancelErr error
		var out outcome
		pollsAtCancel, pollsAfter := 0, 0
		var gpuThreads []*gpuThread
		r.SetOnJobDone(func(st JobStatus) {
			switch {
			case st.ID == quick.ID() && withVictims:
				gpuThreads = jobGPUs(gpuJob)
				cancelErr = errors.Join(r.Cancel(victim.ID()), r.Cancel(gpu.ID()))
			case withVictims && st.ID == gpu.ID():
				pollsAtCancel = gpuPolls(gpuThreads)
			case st.ID == bystander.ID():
				out.procs = r.sub.loop.Shard(0).Sim().Unfinished()
				if !withVictims {
					return
				}
				pollsAfter = gpuPolls(gpuThreads)
				// All eight nodes, the victims' among them.
				job := NewJob(backendConfig(transport.BackendSim, 8, 1))
				job.SetCPUKernel(func(c *CPUCtx) {
					c.SendRecvReplace((c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size(), make([]byte, 4096))
					c.Barrier()
				})
				if successor, err = r.Submit(job, SubmitOpts{Tenant: "successor"}); err != nil {
					t.Error(err)
				}
			}
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if out.Report, err = bystander.Wait(); err != nil {
			t.Fatalf("bystander: %v", err)
		}
		out.JobStatus = bystander.Status()
		if _, err := quick.Wait(); err != nil {
			t.Fatalf("co-tenant: %v", err)
		}
		if !withVictims {
			return out
		}
		if cancelErr != nil {
			t.Fatalf("cancel of running sim jobs: %v", cancelErr)
		}
		for _, h := range []*JobHandle{victim, gpu} {
			if _, err := h.Wait(); !errors.Is(err, ErrJobCanceled) {
				t.Fatalf("victim Wait: err=%v, want ErrJobCanceled", err)
			}
			st := h.Status()
			if st.State != JobCanceled {
				t.Errorf("victim state %v, want canceled", st.State)
			}
			if st.FinishedAt <= 0 || st.FinishedAt >= 10*time.Minute {
				t.Errorf("victim FinishedAt %v, want a mid-run event boundary", st.FinishedAt)
			}
		}
		if pollsAtCancel == 0 || pollsAfter != pollsAtCancel {
			t.Errorf("GPU victim's monitors: %d polls when it was canceled, %d when the bystander finished; want the same, non-zero",
				pollsAtCancel, pollsAfter)
		}
		if successor == nil {
			t.Fatal("no successor was submitted")
		}
		if rep, err := successor.Wait(); err != nil || rep.Requests == 0 {
			t.Errorf("successor on the victims' nodes: %d requests, err %v", rep.Requests, err)
		}
		snap := r.SchedSnapshot()
		if snap.Counters["jobs_canceled"] != 2 || snap.Counters["jobs_done"] != 3 {
			t.Errorf("scheduler counters = canceled %d done %d, want 2/3",
				snap.Counters["jobs_canceled"], snap.Counters["jobs_done"])
		}
		return out
	}
	if alone, shared := run(false), run(true); !reflect.DeepEqual(alone, shared) {
		t.Errorf("bystander changed next to canceled neighbours:\nalone  %+v\nshared %+v", alone, shared)
	}
}

// TestRuntimeCancelUnknownJob pins the error for canceling an id that was
// never submitted.
func TestRuntimeCancelUnknownJob(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Cancel(424242); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("cancel unknown id: err=%v, want ErrNoSuchJob", err)
	}
	h, err := r.Submit(pingPongJob(transport.BackendSim, 1), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeHTTPStatusCodes pins the control API's status-code
// contract: 429 for admission-queue backpressure, 400 for invalid
// submissions, 404 for canceling an unknown job — previously all 500/409.
func TestRuntimeHTTPStatusCodes(t *testing.T) {
	cfg := runtimeConfig(transport.BackendLive, 2)
	cfg.MaxQueue = 1
	cfg.DebugAddr = "127.0.0.1:0"
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RegisterTemplate("block", func() *Job {
		job := NewJob(backendConfig(transport.BackendLive, 2, 1))
		job.SetCPUKernel(func(c *CPUCtx) {
			// Both ranks receive from each other: runs until canceled.
			buf := make([]byte, 8)
			c.Recv(1-c.Rank(), buf)
		})
		return job
	})
	r.RegisterTemplate("wide", func() *Job {
		job := NewJob(backendConfig(transport.BackendLive, 3, 1))
		job.SetCPUKernel(func(*CPUCtx) {})
		return job
	})
	base := "http://" + r.ControlAddr()

	post := func(path string) (int, int) {
		t.Helper()
		resp, err := http.Post(base+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			ID int `json:"id"`
		}
		_ = jsonDecode(resp, &st)
		return resp.StatusCode, st.ID
	}

	// Fill the cluster, then the 1-slot queue, then overflow it.
	code1, id1 := post("/runtime/submit?template=block")
	if code1 != http.StatusOK {
		t.Fatalf("first submit: HTTP %d", code1)
	}
	code2, id2 := post("/runtime/submit?template=block")
	if code2 != http.StatusOK {
		t.Fatalf("queued submit: HTTP %d", code2)
	}
	if code, _ := post("/runtime/submit?template=block"); code != http.StatusTooManyRequests {
		t.Errorf("submit past MaxQueue: HTTP %d, want 429", code)
	}
	// Invalid submissions are the client's fault: 400, not 429 or 500.
	if code, _ := post("/runtime/submit?template=wide"); code != http.StatusBadRequest {
		t.Errorf("oversized job: HTTP %d, want 400", code)
	}
	if code, _ := post("/runtime/submit?template=block&weight=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad weight: HTTP %d, want 400", code)
	}
	// Cancel of a job that never existed: 404, not 409.
	if code, _ := post("/runtime/cancel?id=424242"); code != http.StatusNotFound {
		t.Errorf("cancel unknown id: HTTP %d, want 404", code)
	}
	for _, id := range []int{id2, id1} {
		if code, _ := post(fmt.Sprintf("/runtime/cancel?id=%d", id)); code != http.StatusOK {
			t.Errorf("cancel job %d: HTTP %d, want 200", id, code)
		}
	}
	// Both cancellations must settle before Close.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sts := r.List()
		settled := 0
		for _, st := range sts {
			if st.State == JobCanceled {
				settled++
			}
		}
		if settled == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellations never settled: %+v", sts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeHTTPContentType pins the control API's media-type contract
// alongside the status-code suite: every GET endpoint replies
// application/json, and the flows document decodes into its published
// shape with real stitched flows once a Config.Flows job has run.
func TestRuntimeHTTPContentType(t *testing.T) {
	cfg := runtimeConfig(transport.BackendLive, 2)
	cfg.DebugAddr = "127.0.0.1:0"
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runOne := func() error {
		jobCfg := backendConfig(transport.BackendLive, 2, 1)
		jobCfg.Flows = true
		job := NewJob(jobCfg)
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 64)
			switch c.Rank() {
			case 0:
				c.Send(1, buf)
				c.Recv(1, buf)
			case 1:
				c.Recv(0, buf)
				c.Send(0, buf)
			}
		})
		h, err := r.Submit(job, SubmitOpts{Tenant: "flows"})
		if err == nil {
			_, err = h.Wait()
		}
		return err
	}
	if err := runOne(); err != nil {
		t.Fatal(err)
	}
	// More of the same job are submitted, run and retired beside the requests
	// below: the flows endpoint reads every job's spans, live sinks and
	// retained traces alike, and stitches them outside the runtime's lock
	// (`make race` runs this under the race detector).
	stop, submits := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				submits <- nil
				return
			default:
			}
			if err := runOne(); err != nil {
				submits <- err
				return
			}
		}
	}()
	base := "http://" + r.ControlAddr()
	for _, path := range []string{"/debug/dcgn", "/debug/dcgn/flows", "/runtime/jobs"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: HTTP %d, want 200", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q, want application/json", path, ct)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(base + "/debug/dcgn/flows?k=3")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Flows int `json:"flows"`
		Top   []struct {
			Tenant    string           `json:"tenant"`
			TraceID   uint64           `json:"trace_id"`
			LatencyNs int64            `json:"latency_ns"`
			Spans     int              `json:"spans"`
			PhasesNs  map[string]int64 `json:"phases_ns"`
		} `json:"top"`
	}
	if err := jsonDecode(resp, &doc); err != nil {
		t.Fatalf("flows document does not decode: %v", err)
	}
	if doc.Flows == 0 || len(doc.Top) == 0 {
		t.Fatalf("flows-on job ran, but the document is empty: %+v", doc)
	}
	if len(doc.Top) > 3 {
		t.Errorf("?k=3 returned %d flows", len(doc.Top))
	}
	for i, f := range doc.Top {
		if f.TraceID == 0 || f.Spans == 0 || len(f.PhasesNs) == 0 {
			t.Errorf("flow %d missing fields: %+v", i, f)
		}
		if f.Tenant != "flows" {
			t.Errorf("flow %d tenant %q, want \"flows\"", i, f.Tenant)
		}
		if i > 0 && f.LatencyNs > doc.Top[i-1].LatencyNs {
			t.Errorf("flows not latency-descending at %d", i)
		}
	}
	close(stop)
	if err := <-submits; err != nil {
		t.Errorf("submit beside the requests: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// jsonDecode decodes a response body and closes it; errors are ignored
// by callers (error responses carry plain text).
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestRuntimeSimOpenLoopOverload floods a saturated 2-node cluster with
// virtual-time arrivals well past MaxQueue: overflow is shed with
// ErrQueueFull, admitted work starts in FIFO order within the single
// priority band, and every completed job's buffer pool balances (no
// leaks; the suite runs under -race in CI).
func TestRuntimeSimOpenLoopOverload(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	cfg := runtimeConfig(transport.BackendSim, 2)
	cfg.MaxQueue = 3
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 12
	var handles []*JobHandle
	for i := 0; i < jobs; i++ {
		h, err := r.SubmitAt(pingPongJob(transport.BackendSim, 50), SubmitOpts{},
			time.Duration(i)*time.Microsecond)
		if err != nil {
			t.Fatalf("SubmitAt %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	var completed, shed int
	lastStart := time.Duration(-1)
	for i, h := range handles {
		rep, err := h.Wait()
		switch {
		case err == nil:
			completed++
			checkTenantReportInvariant(t, fmt.Sprintf("job %d", i), rep, 2)
			if st := h.Status(); st.StartedAt < lastStart {
				t.Errorf("job %d started at %v before its predecessor (%v): FIFO violated",
					i, st.StartedAt, lastStart)
			} else {
				lastStart = st.StartedAt
			}
		case errors.Is(err, ErrQueueFull):
			shed++
			if st := h.Status().State; st != JobFailed {
				t.Errorf("shed job %d state %v, want failed", i, st)
			}
		default:
			t.Errorf("job %d: unexpected error %v", i, err)
		}
	}
	if completed == 0 || shed == 0 || completed+shed != jobs {
		t.Fatalf("completed %d, shed %d of %d: overload should both admit and shed", completed, shed, jobs)
	}
	snap := r.SchedSnapshot()
	if int(snap.Counters["jobs_done"]) != completed || int(snap.Counters["jobs_rejected"]) != shed {
		t.Errorf("scheduler counters done %d rejected %d, want %d/%d",
			snap.Counters["jobs_done"], snap.Counters["jobs_rejected"], completed, shed)
	}
	if snap.Histograms["queue_wait_ns"].Count != uint64(completed) {
		t.Errorf("queue-wait observations %d, want one per admitted job (%d)",
			snap.Histograms["queue_wait_ns"].Count, completed)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// No goroutine leaks: everything the runtime spawned must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+5 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, was %d before the run: leak", runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
