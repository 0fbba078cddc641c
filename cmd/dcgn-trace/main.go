// Command dcgn-trace runs a small mixed CPU+GPU DCGN job with request
// tracing enabled and renders every communication request's lifecycle —
// a direct, inspectable rendition of the paper's Fig. 2 dataflow (post,
// relay, completion) including the polling delays GPU-sourced requests
// accumulate.
//
// Three renderings of the same spans:
//
//	-format table   chronological text table (default)
//	-format chrome  Chrome trace-event JSON; load at ui.perfetto.dev to
//	                see one track per node x engine layer (requests,
//	                intake, match, wire, ack)
//	-format csv     one row per request for spreadsheet/pandas analysis
//
// -metrics additionally prints the run's latency histograms (match wait,
// queue depth, collective accumulation) from the job's metrics.
//
// -flows enables causal flow tracing (Config.Flows): spans carry trace
// and span IDs, and the chrome format draws Perfetto flow arrows from
// each wire send to its matched receive. -critical-path (implies -flows
// and the reliability layer, so ack waits are visible) additionally
// prints the run's critical path with per-phase attribution and the
// -topk slowest stitched flows — both bit-deterministic per seed, which
// is what the CI determinism check diffs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/device"
	"dcgn/internal/obs"
	"dcgn/internal/obs/flow"
)

var (
	poll        = flag.Duration("poll", 120*time.Microsecond, "GPU poll interval")
	future      = flag.Bool("future", false, "enable the §7 future-hardware mode (device signaling + GPUDirect)")
	nodes       = flag.Int("nodes", 2, "cluster nodes (each contributes one CPU-kernel rank and one single-slot GPU rank)")
	format      = flag.String("format", "table", "output format: table, chrome (Perfetto trace-event JSON), csv")
	outPath     = flag.String("o", "", "write the trace to this file instead of stdout")
	showMetrics = flag.Bool("metrics", false, "print the metrics histograms after the trace (needs -format table)")
	flows       = flag.Bool("flows", false, "enable causal flow tracing (chrome format draws flow arrows)")
	critPath    = flag.Bool("critical-path", false, "print the critical path and slowest flows (implies -flows and reliability)")
	topk        = flag.Int("topk", 5, "slowest flows to print with -critical-path")
)

const payload = 4096

// traceConfig is the demo cluster: n nodes, one CPU-kernel thread and one
// single-slot GPU per node, so ranks alternate cpu, gpu node by node
// (rank 2i = CPU of node i, rank 2i+1 = its GPU).
func traceConfig(n int, poll time.Duration, future, withMetrics, withFlows, withCritPath bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = n, 1, 1, 1
	cfg.PollInterval = poll
	cfg.Trace = true
	cfg.Metrics = withMetrics
	cfg.Flows = withFlows || withCritPath
	if withCritPath {
		// The critical path attributes ack-wait time, so run the
		// reliability layer to have acks at all.
		cfg.Reliability.Enabled = true
	}
	if future {
		cfg.FutureHW.DeviceSignal = true
		cfg.FutureHW.GPUDirect = true
	}
	return cfg
}

// runTraceJob executes the demo workload on an n-node cluster: every CPU
// rank sends one payload to the *next* node's GPU and waits for the reply;
// every GPU receives from the *previous* node's CPU and echoes the payload
// back. All traffic crosses the wire, every receive exercises the matching
// index, and the closing barrier exercises the collective accumulator.
func runTraceJob(cfg core.Config) (core.Report, error) {
	n := cfg.Nodes
	job := core.NewJob(cfg)
	cpuOf := func(node int) int { return 2 * ((node%n + n) % n) }
	gpuOf := func(node int) int { return cpuOf(node) + 1 }

	job.SetCPUKernel(func(c *core.CPUCtx) {
		buf := make([]byte, payload)
		node := c.Rank() / 2
		if err := c.Send(gpuOf(node+1), buf); err != nil {
			panic(err)
		}
		if _, err := c.Recv(core.AnySource, buf); err != nil {
			panic(err)
		}
		c.Barrier()
	})
	job.SetGPUSetup(func(s *core.GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(payload)
	})
	job.SetGPUKernel(1, 8, func(g *core.GPUCtx) {
		ptr := g.Arg("buf").(device.Ptr)
		node := g.Rank(0) / 2
		if _, err := g.Recv(0, cpuOf(node-1), ptr, payload); err != nil {
			panic(err)
		}
		if err := g.Send(0, cpuOf(node-1), ptr, payload); err != nil {
			panic(err)
		}
		g.Barrier(0)
	})
	return job.Run()
}

// checkFlags rejects flag combinations the run would otherwise silently
// ignore part of.
func checkFlags(nodes int, format string, metrics bool) error {
	switch {
	case nodes < 2:
		return errors.New("-nodes must be >= 2 (the workload crosses the wire)")
	case format != "table" && format != "chrome" && format != "csv":
		return fmt.Errorf("unknown -format %q (want table, chrome or csv)", format)
	case metrics && format != "table":
		return fmt.Errorf("-metrics prints a text table and cannot be combined with -format %s", format)
	}
	return nil
}

func main() {
	flag.Parse()
	if err := checkFlags(*nodes, *format, *showMetrics); err != nil {
		fmt.Fprintln(os.Stderr, "dcgn-trace:", err)
		flag.Usage()
		os.Exit(2)
	}
	rep, err := runTraceJob(traceConfig(*nodes, *poll, *future, *showMetrics, *flows, *critPath))
	if err != nil {
		log.Fatal(err)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		out = f
	}

	switch *format {
	case "chrome":
		if err := obs.WriteChromeTrace(out, rep.Trace); err != nil {
			log.Fatal(err)
		}
	case "csv":
		if err := obs.WriteCSV(out, rep.Trace); err != nil {
			log.Fatal(err)
		}
	case "table":
		fmt.Fprintf(out, "job finished in %v virtual time; %d requests, %d polls (%d productive)\n\n",
			rep.Elapsed, rep.Requests, rep.Polls, rep.PollHits)
		core.WriteTrace(out, rep.Trace)
		if rep.TraceDropped > 0 {
			fmt.Fprintf(out, "\n(%d oldest spans overwritten; raise Config.TraceCap for the full run)\n", rep.TraceDropped)
		}
		if *showMetrics {
			fmt.Fprintln(out)
			if err := obs.WriteHistograms(out, rep.Histograms); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Fprintln(out, "\nGPU-sourced requests show the polling stages (discovery, relay,")
		fmt.Fprintln(out, "completion write-back) in their latency; re-run with -future to see")
		fmt.Fprintln(out, "them collapse, -poll to trade latency against CPU load, or")
		fmt.Fprintln(out, "-format chrome to inspect the same spans in Perfetto.")
	}

	// The critical-path analysis always prints to stdout: with -o the
	// format output goes to the file and this stays on the terminal (and
	// in CI, where the determinism check diffs it).
	if *critPath {
		fmt.Println()
		flow.WritePath(os.Stdout, rep.CriticalPath)
		top := flow.TopK(flow.Stitch(rep.Trace), *topk)
		fmt.Printf("\ntop %d slowest flows:\n", len(top))
		flow.WriteFlows(os.Stdout, top)
	}
}
