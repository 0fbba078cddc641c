package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/obs"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// TestMetricsHistograms exercises the registry end to end on both
// backends: a ping-pong plus barrier workload must populate the match-wait
// histogram (keyed by op/source/size class), the intake queue-depth
// histogram and the collective-accumulation wait, and the snapshot's
// quantile accessors must be coherent.
func TestMetricsHistograms(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		cfg := backendConfig(backend, 2, 1)
		cfg.Metrics = true
		job := NewJob(cfg)
		const iters = 8
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 1024)
			for i := 0; i < iters; i++ {
				switch c.Rank() {
				case 0:
					if err := c.Send(1, buf); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := c.Recv(0, buf); err != nil {
						t.Error(err)
					}
				}
			}
			c.Barrier()
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}

		// Rank 1's receives wait in the matching index for the wire frames:
		// op=recv, cpu source, 1024 bytes => size class "<2KiB".
		mw, ok := rep.Histograms["match_wait_ns/op=recv/src=cpu/size=<2KiB"]
		if !ok {
			t.Fatalf("match-wait histogram missing; have %v", histNames(rep))
		}
		if mw.Count == 0 {
			t.Fatal("match-wait histogram is empty")
		}
		p50, p99 := mw.QuantileF(0.50), mw.QuantileF(0.99)
		if p50 < 0 || p99 < p50 {
			t.Errorf("incoherent quantiles: p50=%v p99=%v", p50, p99)
		}
		if backend == transport.BackendSim && p50 == 0 {
			t.Error("sim match waits are deterministic and nonzero, p50 = 0")
		}

		if qd, ok := rep.Histograms["queue_depth/layer=intake"]; !ok || qd.Count == 0 {
			t.Errorf("intake queue-depth histogram missing or empty (ok=%v)", ok)
		}
		if cw, ok := rep.Histograms["coll_accum_wait_ns/op=barrier"]; !ok || cw.Count == 0 {
			t.Errorf("collective-accumulation histogram missing or empty (ok=%v)", ok)
		}
		if _, ok := rep.Gauges["peak_depth/layer=match"]; !ok {
			t.Error("matching-index peak gauge missing")
		}
	})
}

func histNames(rep Report) []string {
	names := make([]string, 0, len(rep.Histograms))
	for n := range rep.Histograms {
		names = append(names, n)
	}
	return names
}

// TestMetricsGPUPollEfficiency pins the registry's poll-efficiency
// counters against the report's flat aggregates: every monitor poll and
// every productive poll must be counted once.
func TestMetricsGPUPollEfficiency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 1, 1, 1, 1
	cfg.Metrics = true
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 256)
		if _, err := c.Recv(1, buf); err != nil {
			t.Error(err)
		}
	})
	job.SetGPUSetup(func(s *GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(256)
	})
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		if g.Rank(0) == 1 {
			if err := g.Send(0, 0, g.Arg("buf").(device.Ptr), 256); err != nil {
				t.Error(err)
			}
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Polls == 0 {
		t.Fatal("workload produced no polls; test proves nothing")
	}
	if got := rep.Counters["gpu_polls"]; got != int64(rep.Polls) {
		t.Errorf("gpu_polls counter = %d, report says %d", got, rep.Polls)
	}
	if got := rep.Counters["gpu_poll_hits"]; got != int64(rep.PollHits) {
		t.Errorf("gpu_poll_hits counter = %d, report says %d", got, rep.PollHits)
	}
}

// TestMetricsMatchPeak pins the matching index's peak gauge to
// Report.PeakPending: rank 1 posts four receives before any of rank 0's
// four sends arrives off the wire, so the index holds four entries at
// once. A gauge sampled when a request is first handled, before it is
// parked, and never on a wire arrival would read one short.
func TestMetricsMatchPeak(t *testing.T) {
	cfg := cpuOnlyConfig(2, 1)
	cfg.Metrics = true
	job := NewJob(cfg)
	const msgs = 4
	job.SetCPUKernel(func(c *CPUCtx) {
		bufs := make([][]byte, msgs)
		ops := make([]*AsyncOp, msgs)
		for i := range ops {
			bufs[i] = make([]byte, 64)
			if c.Rank() == 0 {
				ops[i] = c.ISend(1, bufs[i])
			} else {
				ops[i] = c.IRecv(0, bufs[i])
			}
		}
		for _, op := range ops {
			if _, err := op.Wait(c); err != nil {
				t.Error(err)
			}
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakPending != msgs {
		t.Fatalf("PeakPending = %d, want %d: the receives did not all wait for the wire; test proves nothing", rep.PeakPending, msgs)
	}
	if got := rep.Gauges["peak_depth/layer=match"]; got != int64(rep.PeakPending) {
		t.Errorf("peak_depth/layer=match = %d, Report.PeakPending = %d", got, rep.PeakPending)
	}
}

// TestJobMetricsConcurrentObserve races first observations of the same
// keys from several goroutines, as nodes on different shards or the live
// backend's comm threads do, with a snapshot taken alongside: every key
// must end up as exactly one histogram holding every observation.
func TestJobMetricsConcurrentObserve(t *testing.T) {
	var m jobMetrics
	keys := []histKey{
		{kind: histIntakeDepth},
		{kind: histMatchWait, op: opRecv, size: 11},
		{kind: histMatchWait, op: opRecv, gpu: true, size: 11},
		{kind: histCollWait, op: opBarrier},
	}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.observe(keys[(w+i)%len(keys)], int64(i))
			}
		}()
	}
	m.snapshot()
	wg.Wait()
	snap := m.snapshot()
	if len(snap.Histograms) != len(keys) {
		t.Fatalf("%d histograms, want %d: %v", len(snap.Histograms), len(keys), histNames(Report{Histograms: snap.Histograms}))
	}
	entries := 0
	for e := m.hists.Load(); e != nil; e = e.next {
		entries++
	}
	if entries != len(keys) {
		t.Errorf("%d list entries for %d keys: a racing first observation published a duplicate", entries, len(keys))
	}
	for _, k := range keys {
		if got := snap.Histograms[k.name()].Count; got != workers*per/uint64(len(keys)) {
			t.Errorf("%s: %d observations, want %d", k.name(), got, workers*per/len(keys))
		}
	}
}

// TestMetricsRetransmitBackoff drives a lossy reliable wire and checks the
// backoff histogram observed one entry per retransmission.
func TestMetricsRetransmitBackoff(t *testing.T) {
	cfg := cpuOnlyConfig(2, 1)
	cfg.Metrics = true
	cfg.Faults = faults.Config{Seed: 3, Drop: 0.25}
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 128)
		for i := 0; i < 24; i++ {
			switch c.Rank() {
			case 0:
				if err := c.Send(1, buf); err != nil {
					t.Error(err)
				}
			case 1:
				if _, err := c.Recv(0, buf); err != nil {
					t.Error(err)
				}
			}
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retransmits == 0 {
		t.Fatal("no retransmits under a 25% drop rate; test proves nothing")
	}
	bo := rep.Histograms["retransmit_backoff_ns"]
	if int64(bo.Count) != rep.Retransmits {
		t.Errorf("backoff histogram saw %d observations, report counted %d retransmits",
			bo.Count, rep.Retransmits)
	}
}

// TestDebugEndpointLive exercises Config.DebugAddr mid-run on the live
// backend: while the kernels are deliberately parked, the test polls the
// bound address, fetches /debug/dcgn, and decodes a registry snapshot
// whose counters reflect the traffic so far.
func TestDebugEndpointLive(t *testing.T) {
	cfg := backendConfig(transport.BackendLive, 2, 1)
	cfg.DebugAddr = "127.0.0.1:0"
	job := NewJob(cfg)
	if !job.Config().Metrics {
		t.Fatal("DebugAddr should imply Metrics")
	}

	release := make(chan struct{})
	// The probe waits for both ranks' operations: the endpoint comes up
	// before any traffic, and a snapshot taken then has nothing in it.
	var traffic sync.WaitGroup
	traffic.Add(2)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 512)
		switch c.Rank() {
		case 0:
			if err := c.Send(1, buf); err != nil {
				t.Error(err)
			}
		case 1:
			if _, err := c.Recv(0, buf); err != nil {
				t.Error(err)
			}
		}
		traffic.Done()
		<-release // park the run so the endpoint can be probed mid-flight
	})

	done := make(chan error, 1)
	var rep Report
	go func() {
		var err error
		rep, err = job.Run()
		done <- err
	}()

	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; {
		if time.Now().After(deadline) {
			t.Fatal("debug endpoint never came up")
		}
		addr = job.DebugAddr()
		if addr == "" {
			time.Sleep(time.Millisecond)
		}
	}
	traffic.Wait()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/dcgn", addr))
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	var st obs.DebugState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		resp.Body.Close()
		close(release)
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if len(st.Histograms) == 0 {
		t.Error("mid-run snapshot has no histograms")
	}
	if len(rep.Histograms) == 0 {
		t.Error("final report has no histograms")
	}
	if job.DebugAddr() != "" {
		t.Error("endpoint still bound after Run returned")
	}
}

// TestDebugEndpointSim probes /debug/dcgn mid-run on the simulated backend,
// where the engine's counts live on the simulator's goroutines: a CPU+GPU
// job's device kernel parks on a Go channel after its first send, and the
// test polls the endpoint until the snapshot shows that traffic — GPU polls
// and the matching index's peak, read while the engine that wrote them is
// still alive. The test takes no other synchronization with the kernel, so
// under -race a count the snapshot reads without an atomic is reported.
func TestDebugEndpointSim(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 1, 1, 1, 1
	cfg.DebugAddr = "127.0.0.1:0"
	job := NewJob(cfg)
	release := make(chan struct{})
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 256)
		for i := 0; i < 2; i++ {
			if _, err := c.Recv(1, buf); err != nil {
				t.Error(err)
			}
		}
	})
	job.SetGPUSetup(func(s *GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(256)
	})
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		if g.Rank(0) != 1 {
			return
		}
		for i := 0; i < 2; i++ {
			if err := g.Send(0, 0, g.Arg("buf").(device.Ptr), 256); err != nil {
				t.Error(err)
			}
			if i == 0 {
				<-release // park the simulator so the endpoint is probed mid-run
			}
		}
	})

	done := make(chan error, 1)
	var rep Report
	go func() {
		var err error
		rep, err = job.Run()
		done <- err
	}()

	var st obs.DebugState
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("no mid-run snapshot showed the first send; last: %+v", st)
		}
		addr := job.DebugAddr()
		if addr == "" {
			continue
		}
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/dcgn", addr))
		if err != nil {
			close(release)
			t.Fatal(err)
		}
		st = obs.DebugState{}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			close(release)
			t.Fatal(err)
		}
		if st.Counters["gpu_poll_hits"] > 0 && st.Gauges["peak_depth/layer=match"] > 0 {
			break
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got, mid := rep.Counters["gpu_polls"], st.Counters["gpu_polls"]; got < mid {
		t.Errorf("final gpu_polls %d below the mid-run snapshot's %d", got, mid)
	}
	if got := rep.Gauges["peak_depth/layer=match"]; got != int64(rep.PeakPending) {
		t.Errorf("peak_depth/layer=match = %d, Report.PeakPending = %d", got, rep.PeakPending)
	}
}
