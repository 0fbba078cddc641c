package main

import "slices"

// Metric kinds. The benchmark contract (BENCHMARK.json) wants every
// end-to-end metric on every workload, so only the metrics defined on all
// six are driverE2E; the workload-specific headline metrics are end-to-end
// in this program's own output and bounded by -selfcheck, and ride with
// the per-layer set in the contract's --trace 1 output.
const (
	driverE2E   = "end_to_end"     // defined on every workload; bounded by the driver
	workloadE2E = "end_to_end_own" // defined on some workloads; bounded by -selfcheck
	perLayer    = "per_layer"      // diagnostics of one layer; no bound
)

// Clocks. Virtual metrics are the modelled hardware's time and repeat
// exactly for a seed; host and wall metrics are what this process costs on
// this machine and are noisy; counts come from the program's reports.
const (
	clockHost    = "host"
	clockWall    = "wall"
	clockVirtual = "virtual"
	clockCount   = "count"
)

// metricDef describes one metric: the single place a name, unit, clock,
// direction and bound are written down. The tests check BENCHMARK.json
// against this table.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string // "lower" or "higher"
	Kind   string
	// On lists the workloads the metric is defined on; nil means all. A
	// metric is reported as 0 where it is not defined.
	On []string
	// Rel is the bound of an end-to-end metric: the share of the first
	// value by which a second measurement of the same commit may be worse.
	// For the driverE2E metrics it is BENCHMARK.json's bound. Abs is an
	// absolute slack in the metric's unit that also passes -selfcheck.
	// Virtual metrics carry the 0.5% a deliberate re-baseline may move
	// them; -selfcheck itself asks them to be identical.
	Rel, Abs float64
}

// definedOn reports whether the metric is defined on the workload.
func (m metricDef) definedOn(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}

var virtWorkloads = []string{"p2p_small", "p2p_large", "scale_sharded", "paper_eval"}

func layer(l, name, unit, clock, better string) metricDef {
	return metricDef{Name: l + "." + name, Unit: unit, Clock: clock, Better: better, Kind: perLayer}
}

// metricDefs is every metric the benchmark reports, in print order.
var metricDefs = []metricDef{
	// End to end, every workload.
	{Name: "setup_s", Unit: "s", Clock: clockHost, Better: "lower", Kind: driverE2E, Rel: 0.25, Abs: 0.2},
	{Name: "ops_per_s", Unit: "1/s", Clock: clockHost, Better: "higher", Kind: driverE2E, Rel: 0.25},
	{Name: "allocs_per_op", Unit: "count", Clock: clockHost, Better: "lower", Kind: driverE2E, Rel: 0.05},
	{Name: "alloc_kb_per_op", Unit: "KiB", Clock: clockHost, Better: "lower", Kind: driverE2E, Rel: 0.06},
	{Name: "e2e_ms_p50", Unit: "ms", Clock: clockWall, Better: "lower", Kind: driverE2E, Rel: 0.25},
	// End to end, where the workload has the quantity.
	{Name: "e2e_ms_p90", Unit: "ms", Clock: clockWall, Better: "lower", Kind: workloadE2E, On: []string{"serve_live"}, Rel: 0.25},
	{Name: "virt_us_per_op", Unit: "us", Clock: clockVirtual, Better: "lower", Kind: workloadE2E, On: virtWorkloads, Rel: 0.005},
	{Name: "virt_e2e_ms_p50", Unit: "ms", Clock: clockVirtual, Better: "lower", Kind: workloadE2E, On: []string{"serve_sim"}, Rel: 0.005},
	{Name: "virt_e2e_ms_p99", Unit: "ms", Clock: clockVirtual, Better: "lower", Kind: workloadE2E, On: []string{"serve_sim"}, Rel: 0.005},
	{Name: "knee_jobs_per_s", Unit: "1/s", Clock: clockVirtual, Better: "higher", Kind: workloadE2E, On: []string{"serve_sim"}, Rel: 0.005},
	{Name: "model_err_pct", Unit: "%", Clock: clockVirtual, Better: "lower", Kind: workloadE2E, On: []string{"paper_eval"}, Abs: 0.5},
	{Name: "failed_frac", Unit: "ratio", Clock: clockCount, Better: "lower", Kind: workloadE2E},

	layer("sim", "switch_ns", "ns", clockHost, "lower"),
	layer("sim", "switch_mp_ns", "ns", clockHost, "lower"), // with GOMAXPROCS = nproc capped at 4
	layer("sim", "timer_ns", "ns", clockHost, "lower"),
	layer("sim", "spawn_ns", "ns", clockHost, "lower"),
	layer("sim", "chan_ns", "ns", clockHost, "lower"),
	layer("sim", "shard_arrival_ns", "ns", clockHost, "lower"),
	layer("sim", "shard_speedup", "ratio", clockHost, "higher"), // GOMAXPROCS = shard count against 1
	layer("sim", "host_ns_per_virt_us", "ns/us", clockHost, "lower"),

	layer("bufpool", "getput_ns", "ns", clockHost, "lower"),
	layer("bufpool", "acquires_per_op", "count", clockCount, "lower"),
	layer("bufpool", "hit_ratio", "ratio", clockCount, "higher"),
	layer("bufpool", "leaked", "count", clockCount, "lower"),

	layer("fabric", "send_ns", "ns", clockHost, "lower"),
	layer("fabric", "packets_per_op", "count", clockCount, "lower"),
	layer("fabric", "bytes_per_op", "B", clockCount, "lower"),

	layer("pcie", "xfer_ns", "ns", clockHost, "lower"),
	layer("pcie", "transfers_per_op", "count", clockCount, "lower"),
	layer("pcie", "ctl_per_op", "count", clockCount, "lower"),

	layer("device", "new_ms", "ms", clockHost, "lower"),
	layer("device", "launch_ns", "ns", clockHost, "lower"),
	layer("device", "copy_mb_per_s", "MB/s", clockHost, "higher"),

	layer("mpi", "eager_ns", "ns", clockHost, "lower"),
	layer("mpi", "rndv_ns", "ns", clockHost, "lower"),
	layer("mpi", "rndv_mb_per_s", "MB/s", clockHost, "higher"),
	layer("mpi", "barrier_ns", "ns", clockHost, "lower"),
	layer("mpi", "bcast_ns", "ns", clockHost, "lower"),
	layer("mpi", "gather_ns", "ns", clockHost, "lower"),

	layer("transport", "simmpi_msg_ns", "ns", clockHost, "lower"),
	layer("transport", "live_msg_ns", "ns", clockWall, "lower"),
	layer("transport", "live_mb_per_s", "MB/s", clockWall, "higher"),

	layer("core", "cpu_msg_ns", "ns", clockHost, "lower"),
	layer("core", "gpu_msg_ns", "ns", clockHost, "lower"),
	layer("core", "gpu_poll_ns", "ns", clockHost, "lower"),
	layer("core", "fanin_msg_ns", "ns", clockHost, "lower"),
	layer("core", "coll_ns", "ns", clockHost, "lower"),
	layer("core", "job_build_ms", "ms", clockHost, "lower"),
	layer("core", "requests_per_op", "count", clockCount, "lower"),
	layer("core", "peak_pending", "count", clockCount, "lower"),
	layer("core", "peak_intake_depth", "count", clockCount, "lower"),
	layer("core", "gpu_polls_per_op", "count", clockCount, "lower"),
	layer("core", "gpu_poll_hit_ratio", "ratio", clockCount, "higher"),

	layer("runtime", "sim_job_ns", "ns", clockHost, "lower"),
	layer("runtime", "live_job_ns", "ns", clockWall, "lower"),
	layer("runtime", "queue_wait_ms_p99", "ms", clockVirtual, "lower"),
	layer("runtime", "match_wait_ms_p99", "ms", clockVirtual, "lower"),
	layer("runtime", "rejected_frac", "ratio", clockCount, "lower"),
	layer("runtime", "e2e_ms_p99", "ms", clockVirtual, "lower"),

	layer("loadgen", "gen_ns_per_arrival", "ns", clockHost, "lower"),
	layer("loadgen", "late_ms_p50", "ms", clockWall, "lower"),
	layer("loadgen", "late_ms_max", "ms", clockWall, "lower"),

	layer("obs", "span_ns", "ns", clockHost, "lower"),
	layer("obs", "hist_ns", "ns", clockHost, "lower"),
	layer("obs", "stitch_ns_per_span", "ns", clockHost, "lower"),
	layer("obs", "spans_per_op", "count", clockCount, "lower"),
	layer("obs", "trace_dropped", "count", clockCount, "lower"),
	layer("obs", "trace_overhead_pct", "%", clockHost, "lower"),

	// Shares of the critical path, in flow.Phases order; they sum to 1.
	layer("vt", "sched_wait_share", "share", clockVirtual, "lower"),
	layer("vt", "queue_share", "share", clockVirtual, "lower"),
	layer("vt", "dispatch_share", "share", clockVirtual, "lower"),
	layer("vt", "match_wait_share", "share", clockVirtual, "lower"),
	layer("vt", "wire_share", "share", clockVirtual, "lower"),
	layer("vt", "ack_wait_share", "share", clockVirtual, "lower"),
	layer("vt", "notify_share", "share", clockVirtual, "lower"),
	layer("vt", "coll_accum_share", "share", clockVirtual, "lower"),
	layer("vt", "compute_share", "share", clockVirtual, "lower"),

	layer("host", "rep_ms_p50", "ms", clockHost, "lower"),
	layer("host", "rep_ms_p90", "ms", clockHost, "lower"),
	layer("host", "gc_pause_ms_per_rep", "ms", clockHost, "lower"),
	layer("host", "gc_cycles_per_rep", "count", clockHost, "lower"),
	layer("host", "peak_rss_mb", "MB", clockHost, "lower"),
	layer("host", "cpu_s_per_wall_s", "ratio", clockHost, "lower"),
	layer("host", "ladder_gap_share", "share", clockHost, "lower"),
}

// metricsOfKind returns the definitions of the given kinds, in print order.
func metricsOfKind(kinds ...string) []metricDef {
	var out []metricDef
	for _, m := range metricDefs {
		if slices.Contains(kinds, m.Kind) {
			out = append(out, m)
		}
	}
	return out
}

// values maps metric name to value. A metric that is absent reads as 0,
// which is what the benchmark reports where a metric is not defined.
type values map[string]float64
