package main

import (
	"time"

	"dcgn/internal/obs/flow"
)

// The traced run. End-to-end metrics never come from it; it produces the
// per-layer numbers in two passes:
//
//	(a) program pass: a few repetitions with the program's existing
//	    outputs switched on (Config.Trace, Flows, Metrics), alternating
//	    with untraced ones so that the pair sees the same machine state —
//	    their ratio is the tracing overhead;
//	(b) ladder pass: each layer's public functions called directly with
//	    the workload's op mix (ladder.go).

// layers is the outcome of one traced run.
type layers struct {
	metrics values
	ladder  []ladderRow
	// base are the program pass's untraced repetitions.
	base *run
	// total sums ops, failed and reasons over everything the run did.
	total outcome
}

// tracedRun runs both passes for about seconds. ref is the timed run when
// this process made one; the host.* diagnostics and the ladder's
// repetition time then come from it, otherwise from the program pass's
// untraced repetitions.
func tracedRun(w *workload, rep repFn, e env, seconds float64, ref *run, rec *recorder) (*layers, error) {
	defer rec.begin("traced")()
	base, prog := &run{}, &run{}
	endPass := rec.begin("program-pass")
	budget := time.Duration(seconds * float64(time.Second) / 2)
	for start := time.Now(); len(base.outs) == 0 || time.Since(start) < budget; {
		for _, r := range []*run{base, prog} {
			if err := r.repeat(rep, r == prog, rec); err != nil {
				return nil, err
			}
		}
	}
	endPass()
	if ref == nil {
		ref = base
	}
	out := &layers{base: base}
	out.total.count(base.total)
	out.total.count(prog.total)

	v, err := ladderPass(w, e.quick, rec)
	if err != nil {
		return nil, err
	}
	last := prog.last()
	c, ops := last.counts, float64(last.ops)
	perOp := func(n float64) float64 { return n / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v["bufpool.acquires_per_op"] = perOp(float64(c.poolAcquires))
	v["bufpool.hit_ratio"] = ratio(float64(c.poolHits), float64(c.poolAcquires))
	v["bufpool.leaked"] = float64(c.poolAcquires) - float64(c.poolReleases)
	v["fabric.packets_per_op"] = perOp(float64(c.packets))
	v["fabric.bytes_per_op"] = perOp(float64(c.netBytes))
	v["pcie.transfers_per_op"] = perOp(float64(c.busTransfers))
	v["pcie.ctl_per_op"] = perOp(float64(c.busCtl))
	v["core.requests_per_op"] = perOp(float64(c.requests))
	v["core.peak_pending"] = float64(c.peakPending)
	v["core.peak_intake_depth"] = float64(c.peakIntake)
	v["core.gpu_polls_per_op"] = perOp(float64(c.polls))
	v["core.gpu_poll_hit_ratio"] = ratio(float64(c.pollHits), float64(c.polls))
	v["obs.spans_per_op"] = perOp(float64(c.spans))
	v["obs.trace_dropped"] = float64(c.traceDropped)
	end := rec.begin("obs.stitch_ns_per_span")
	v["obs.stitch_ns_per_span"] = stitchNsPerSpan(c.trace)
	end()
	// hostSecs is what one repetition of a run costs the host: quiet wall
	// time, or mean CPU time where the arrival schedule sets the wall time.
	hostSecs := func(r *run) float64 {
		if w.mix.live {
			return r.host.cpu.Seconds() / float64(len(r.outs))
		}
		return r.quietSecs()
	}
	v["obs.trace_overhead_pct"] = 100 * (ratio(hostSecs(prog), hostSecs(base)) - 1)

	// Shares of the critical path: phase totals over their sum, so that
	// they add up to 1 exactly as the path tiles its window.
	var path time.Duration
	for _, d := range c.phases {
		path += d
	}
	for _, p := range flow.Phases {
		v["vt."+p+"_share"] = ratio(float64(c.phases[p]), float64(path))
	}

	// Metrics the untraced repetitions give: the workload's own end-to-end
	// metrics and the runtime's and generator's histograms.
	for name, x := range endToEnd(w, base, 0) {
		if defByName(name).Kind == workloadE2E {
			v[name] = x
		}
	}
	for name, x := range base.last().own {
		v[name] = x
	}
	var late []float64
	for _, o := range base.outs {
		late = append(late, o.lateMs...)
	}
	if len(late) > 0 {
		v["loadgen.late_ms_p50"] = median(late)
		v["loadgen.late_ms_max"] = sorted(late)[len(late)-1]
	}

	reps := float64(len(ref.secs))
	repNs := hostSecs(ref) * 1e9
	if last.virtNs > 0 {
		v["sim.host_ns_per_virt_us"] = repNs / (float64(base.last().virtNs) / 1e3)
	}
	v["host.rep_ms_p50"] = median(ref.secs) * 1e3
	v["host.rep_ms_p90"], _ = tail(ref.secs, 0.90)
	v["host.rep_ms_p90"] *= 1e3
	v["host.gc_pause_ms_per_rep"] = float64(ref.host.gcPause.Nanoseconds()) / 1e6 / reps
	v["host.gc_cycles_per_rep"] = float64(ref.host.gcCycles) / reps
	v["host.cpu_s_per_wall_s"] = ratio(ref.host.cpu.Seconds(), ref.host.wall.Seconds())

	out.ladder = ladderTable(w, c, v, repNs)
	v["host.ladder_gap_share"] = out.ladder[len(out.ladder)-1].Share

	if w.once != nil {
		end := rec.begin("once")
		own, checked, err := w.once(e)
		end()
		if err != nil {
			return nil, err
		}
		out.total.count(checked)
		for name, x := range own {
			v[name] = x
		}
	}
	v["host.peak_rss_mb"] = peakRSSMB()
	out.metrics = v
	return out, nil
}
